package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
)

// expvar publication: each name is registered with the expvar package
// once (expvar panics on duplicate names), but the recorder behind a name
// can be swapped — a CLI run publishes its fresh recorder under the same
// name every invocation of ServeDebug.
var (
	pubMu   sync.Mutex
	pubRecs = map[string]*Recorder{}
)

// Publish exposes the recorder's live snapshot under the given expvar
// name, so it appears in /debug/vars next to memstats. Re-publishing an
// existing name swaps the recorder.
func Publish(name string, r *Recorder) {
	pubMu.Lock()
	defer pubMu.Unlock()
	if _, ok := pubRecs[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			pubMu.Lock()
			rec := pubRecs[name]
			pubMu.Unlock()
			return rec.Snapshot()
		}))
	}
	pubRecs[name] = r
}

// DebugServer is a live debugging endpoint: /debug/pprof/* (CPU, heap,
// goroutine, ... profiles), /debug/vars (expvar, including every
// Published recorder) and /debug/metrics (the recorder's snapshot as
// standalone JSON).
type DebugServer struct {
	Addr net.Addr
	srv  *http.Server
	ln   net.Listener
}

// ServeDebug publishes r under the expvar name "dvicl", binds addr (e.g.
// "localhost:6060"; a ":0" port picks a free one — read the bound address
// from DebugServer.Addr) and serves the debug endpoints in a background
// goroutine until Close.
func ServeDebug(addr string, r *Recorder) (*DebugServer, error) {
	Publish("dvicl", r)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ds := &DebugServer{Addr: ln.Addr(), srv: &http.Server{Handler: mux}, ln: ln}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot as indented JSON to the file at path,
// creating or truncating it.
func (s Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
