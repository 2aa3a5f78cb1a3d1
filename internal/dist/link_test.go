//go:build unix

package dist

import (
	"net"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// TestLinkIsAUnixSocketWithRoomForAChunk: an endpoint listens on a
// Unix-domain socket (on Linux an abstract name, "@" first), and a dialed
// link's send buffer holds the largest frame a workload sends, dp2x2's 1 MiB
// ring chunk, whole. A Unix-domain socket does not autotune its buffer; at
// Linux's default of 208 KiB, pp4-compute's 256 KiB activations stall partway
// through their writes and its steps slow by about 14%.
func TestLinkIsAUnixSocketWithRoomForAChunk(t *testing.T) {
	tr := link0to1(t, Options{}, rawPeer(t).Addr().String())
	if a := tr.ln.Addr(); a.Network() != "unix" {
		t.Fatalf("endpoint listens on %s %s, want a Unix-domain socket", a.Network(), a)
	}
	if goruntime.GOOS == "linux" && !strings.HasPrefix(tr.Addr(), "@") {
		t.Fatalf("endpoint address %q, want an abstract name the kernel autobound", tr.Addr())
	}
	pl, err := tr.link(1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := pl.c.(*net.UnixConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var got int
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		got, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatal(gerr)
	}
	const chunk = 1 << 17 // f64s: 1 MiB
	want := frameSize(&Header{Kind: frameData, DType: DTF64, Shape: []int{chunk}}, chunk, true)
	// Linux grants at most net.core.wmem_max and reports twice what it
	// granted; the default buffer stays below even a capped request.
	if b, err := os.ReadFile("/proc/sys/net/core/wmem_max"); err == nil {
		if wmemMax, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && 2*wmemMax < want {
			t.Logf("net.core.wmem_max %d caps the send buffer below a %d-byte frame", wmemMax, want)
			want = 2 * wmemMax
		}
	}
	if got < want {
		t.Fatalf("a dialed link's SO_SNDBUF is %d bytes, want at least %d", got, want)
	}
	t.Logf("SO_SNDBUF %d bytes", got)
}
