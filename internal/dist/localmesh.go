package dist

import (
	"repro/internal/tensor"
)

// LocalMesh hosts n dist endpoints inside one process, wired over real
// Unix-domain sockets — the single-binary multi-actor topology the old
// gob-based rpcx transport served, now on the binary wire protocol. It
// implements transport.Transport for a whole cluster by routing
// each call to the owning endpoint, so `jaxpp-train -tcp` exercises the
// exact frame encode/decode and sender-worker path the multi-process runtime
// uses, without a coordinator.
type LocalMesh struct {
	eps []*Transport
}

// NewLocalMesh provisions one endpoint per actor and connects them.
func NewLocalMesh(actors int, opts Options) (*LocalMesh, error) {
	m := &LocalMesh{}
	book := make(map[int]string, actors)
	for r := 0; r < actors; r++ {
		ep, err := NewTransport(r, opts)
		if err != nil {
			m.Close()
			return nil, err
		}
		ep.yield = false // the ranks share the process's Ps (see Transport)
		m.eps = append(m.eps, ep)
		book[r] = ep.Addr()
	}
	for _, ep := range m.eps {
		ep.Connect(book)
	}
	return m, nil
}

// Addr returns the listen address of one actor's endpoint.
func (m *LocalMesh) Addr(actor int) string { return m.eps[actor].Addr() }

// Endpoint exposes one actor's transport (tests arm a wire dtype or a shape
// on individual endpoints).
func (m *LocalMesh) Endpoint(actor int) *Transport { return m.eps[actor] }

// SetShape forwards the modeled network to every endpoint.
func (m *LocalMesh) SetShape(opts ShapeOpts) {
	for _, ep := range m.eps {
		ep.SetShape(opts)
	}
}

// SetWireDType forwards the lossy data-frame encoding to every endpoint.
func (m *LocalMesh) SetWireDType(dt DType) {
	for _, ep := range m.eps {
		ep.SetWireDType(dt)
	}
}

// SetLossyTagWindow forwards the lossy tag window to every endpoint.
func (m *LocalMesh) SetLossyTagWindow(lo, hi int) {
	for _, ep := range m.eps {
		ep.SetLossyTagWindow(lo, hi)
	}
}

// Send implements transport.Transport.
func (m *LocalMesh) Send(from, to, tag int, t *tensor.Tensor) {
	m.eps[from].Send(from, to, tag, t)
}

// SendLent implements transport.Transport.
func (m *LocalMesh) SendLent(from, to, tag int, payload, residual []float64) {
	m.eps[from].SendLent(from, to, tag, payload, residual)
}

// Settle implements transport.Transport.
func (m *LocalMesh) Settle(from, to int) error { return m.eps[from].Settle(from, to) }

// Recv implements transport.Transport.
func (m *LocalMesh) Recv(to, from, tag int) (*tensor.Tensor, error) {
	return m.eps[to].Recv(to, from, tag)
}

// Poison fails every endpoint: pending and future receives on any actor
// error out promptly. A multi-actor driver whose goroutines share the mesh
// uses it the way a process crash poisons the distributed transport — one
// failed actor must not leave its peers blocked in ring receives until
// their timeouts.
func (m *LocalMesh) Poison(err error) {
	for _, ep := range m.eps {
		ep.Poison(err)
	}
}

// Err returns the first endpoint poison error, if any.
func (m *LocalMesh) Err() error {
	for _, ep := range m.eps {
		if err := ep.Err(); err != nil {
			return err
		}
	}
	return nil
}

// SendCount aggregates messages and payload bytes across endpoints.
func (m *LocalMesh) SendCount() (int, int64) {
	var n int
	var bytes int64
	for _, ep := range m.eps {
		sn, sb := ep.SendCount()
		n += sn
		bytes += sb
	}
	return n, bytes
}

// Close shuts down every endpoint.
func (m *LocalMesh) Close() error {
	var first error
	for _, ep := range m.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
