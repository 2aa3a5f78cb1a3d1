//go:build !linux

package dist

import (
	"net"
	"os"
	"path/filepath"
)

// listenUnix opens a data-plane listener on a socket file in a fresh
// temporary directory: this kernel has no abstract names to autobind.
// Closing the listener removes the directory.
func listenUnix() (net.Listener, error) {
	dir, err := os.MkdirTemp("", "dist")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("unix", filepath.Join(dir, "s"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &dirListener{ln, dir}, nil
}

type dirListener struct {
	net.Listener
	dir string
}

func (l *dirListener) Close() error {
	err := l.Listener.Close()
	os.RemoveAll(l.dir)
	return err
}
