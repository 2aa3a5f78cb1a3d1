package dist

import "net"

// listenUnix opens a data-plane listener. The empty name has Linux autobind
// an abstract name of its choosing, which Addr reports with a leading "@":
// the Unix-domain counterpart of TCP's port 0, and no file for a killed
// process to leave behind.
func listenUnix() (net.Listener, error) { return net.Listen("unix", "") }
