package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"manywalks/internal/cluster"
	"manywalks/internal/graph"
	"manywalks/internal/httpapi"
	"manywalks/internal/netsim"
	"manywalks/internal/serve"
	"manywalks/internal/walk"
)

// replicaDeadline is the per-request deadline each walkd replica enforces,
// as cmd/walkd's -deadline flag does.
const replicaDeadline = 30 * time.Second

// newServer starts a serve.Server with every graph registered and its
// uniform engine compiled (plus any kernels named).
func newServer(graphs map[string]*graph.Graph, opts serve.Options, kernels map[string]walk.Kernel) (*serve.Server, error) {
	srv := serve.NewServer(opts)
	for id, g := range graphs {
		if err := srv.RegisterGraph(id, g); err != nil {
			srv.Close()
			return nil, err
		}
		if err := srv.Warm(id, nil); err != nil {
			srv.Close()
			return nil, err
		}
	}
	for id, k := range kernels {
		if err := srv.Warm(id, k); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// httpServer serves h on a loopback port until close, which waits for the
// serving goroutine to end.
type httpServer struct {
	srv  *http.Server
	url  string
	done sync.WaitGroup
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *httpServer) close() {
	_ = s.srv.Close()
	s.done.Wait()
}

// fleet is two in-process walkd replicas (serve.Server behind
// httpapi.NewMux on loopback) behind a shape-affinity cluster router, and
// a client whose keep-alive pool holds at most conns connections per host.
type fleet struct {
	servers   []*serve.Server
	replicas  []*httpServer
	router    *cluster.Router
	front     *httpServer
	transport *http.Transport
	client    *http.Client
}

const fleetReplicas = 2

func startFleet(graphs map[string]*graph.Graph, opts serve.Options, conns int, kernels map[string]walk.Kernel) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, 0, fleetReplicas)
	for i := 0; i < fleetReplicas; i++ {
		srv, err := newServer(graphs, opts, kernels)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		hs, err := listen(httpapi.NewMux(srv, replicaDeadline))
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, hs)
		urls = append(urls, hs.url)
	}
	rt, err := cluster.New(cluster.Options{
		Backends:          urls,
		Policy:            cluster.Affinity,
		HealthInterval:    -1, // loopback fleet: passive failure detection only
		MaxIdlePerBackend: conns,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	if f.front, err = listen(rt); err != nil {
		f.close()
		return nil, err
	}
	f.transport = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	f.client = &http.Client{Transport: f.transport, Timeout: time.Minute}
	return f, nil
}

func (f *fleet) close() {
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	if f.front != nil {
		f.front.close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		r.close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// post sends one JSON body and returns the status and the response body.
func (f *fleet) post(url, path string, body []byte) (int, []byte, error) {
	resp, err := f.client.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// compileEngine compiles g's engine under kern (nil: uniform) and runs one
// single-trial cover pass, which builds the engine's lazy pair table.
func compileEngine(g *graph.Graph, kern walk.Kernel) (*walk.Engine, error) {
	eng := walk.NewEngine(g, walk.EngineOptions{Workers: 1, Kernel: kern})
	_, err := eng.RunGrouped(walk.GroupedRunSpec{Trials: 1, Starts: []int32{0}, Seed: 1, MaxRounds: 1 << 24},
		walk.NewGroupCoverObserver(0))
	return eng, err
}

// kernelOf parses a kernel spelling; "" is the uniform walk (nil).
func kernelOf(name string) (walk.Kernel, error) {
	if name == "" {
		return nil, nil
	}
	return walk.ParseKernel(name)
}

// statsDelta is the change in a server's counters from before to after.
func statsDelta(before, after serve.Stats) serve.Stats {
	return serve.Stats{Passes: after.Passes - before.Passes, Lanes: after.Lanes - before.Lanes,
		EngineMisses: after.EngineMisses - before.EngineMisses, Naive: after.Naive - before.Naive}
}

// lanesPerPass is the mean lanes of an engine run: a request served on the
// naive path is a run of its own.
func lanesPerPass(st serve.Stats) float64 {
	return float64(st.Lanes+st.Naive) / float64(st.Passes+st.Naive)
}

// queryReq is one light walk query: k walkers from origin searching for a
// single target within ttl rounds.
type queryReq struct {
	graph  string
	origin int32
	k, ttl int
	target int32
	seed   uint64
}

func (q queryReq) serveReq() serve.WalkQueryRequest {
	return serve.WalkQueryRequest{Graph: q.graph, Origin: q.origin, K: q.k, TTL: q.ttl,
		Targets: []int32{q.target}, Seed: q.seed}
}

func (q queryReq) body() []byte {
	b, _ := json.Marshal(struct {
		Graph   string  `json:"graph"`
		Origin  int32   `json:"origin"`
		K       int     `json:"k"`
		TTL     int     `json:"ttl"`
		Targets []int32 `json:"targets"`
		Seed    uint64  `json:"seed"`
	}{q.graph, q.origin, q.k, q.ttl, []int32{q.target}, q.seed})
	return b
}

// standalone is the reference answer: the sequential engine run.
func (q queryReq) standalone(eng *walk.Engine) netsim.QueryResult {
	hasItem := make([]bool, eng.Graph().N())
	hasItem[q.target] = true
	return netsim.RunWalkQueryEngine(eng, q.origin, q.k, q.ttl, hasItem, q.seed)
}

// estReq is one fixed-trial estimate: a k-walk cover from start, or with
// target >= 0 the single-walker hitting time start→target.
type estReq struct {
	graph    string
	kernel   string // "" is the uniform walk
	start    int32
	target   int32
	k        int
	trials   int
	seed     uint64
	maxSteps int64
}

func (e estReq) hitting() bool { return e.target >= 0 }

func (e estReq) mc(workers int) walk.MCOptions {
	return walk.MCOptions{Trials: e.trials, Workers: workers, Seed: e.seed, MaxSteps: e.maxSteps}
}

// estimate runs the request through the walk package's estimator.
func (e estReq) estimate(g *graph.Graph, opts walk.MCOptions) (walk.Estimate, error) {
	switch {
	case e.hitting():
		return walk.EstimateHittingTime(g, e.start, e.target, opts)
	case e.kernel != "":
		kern, err := kernelOf(e.kernel)
		if err != nil {
			return walk.Estimate{}, err
		}
		return walk.EstimateKernelKCoverTime(g, kern, e.start, e.k, opts)
	}
	return walk.EstimateKCoverTime(g, e.start, e.k, opts)
}

func (e estReq) path() string {
	if e.hitting() {
		return "/v1/hitting"
	}
	return "/v1/cover"
}

func (e estReq) body() []byte {
	var v any
	if e.hitting() {
		v = struct {
			Graph    string `json:"graph"`
			Start    int32  `json:"start"`
			Target   int32  `json:"target"`
			Trials   int    `json:"trials"`
			Seed     uint64 `json:"seed"`
			MaxSteps int64  `json:"max_steps"`
		}{e.graph, e.start, e.target, e.trials, e.seed, e.maxSteps}
	} else {
		v = struct {
			Graph    string `json:"graph"`
			Kernel   string `json:"kernel,omitempty"`
			Start    int32  `json:"start"`
			K        int    `json:"k"`
			Trials   int    `json:"trials"`
			Seed     uint64 `json:"seed"`
			MaxSteps int64  `json:"max_steps"`
		}{e.graph, e.kernel, e.start, e.k, e.trials, e.seed, e.maxSteps}
	}
	b, _ := json.Marshal(v)
	return b
}

// wireJSON is the body walkd answers v with: deterministic JSON, HTML
// escaping off, one trailing newline.
func wireJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return buf.Bytes()
}

func queryWire(r netsim.QueryResult) []byte {
	return wireJSON(httpapi.QueryResponse{Found: r.Found, Rounds: r.Rounds, Messages: r.Messages})
}

func estimateWire(e walk.Estimate) []byte {
	return wireJSON(httpapi.EstimateResponse{Mean: e.Summary.Mean, CI95: e.CI95(),
		Min: e.Summary.Min, Max: e.Summary.Max, Trials: e.Summary.N,
		Truncated: e.Truncated, Waves: e.Waves, Converged: e.Converged})
}

// checkBody counts one HTTP answer: it must be a 200 whose body is
// byte-equal to want.
func checkBody(tl *tally, what string, code int, body []byte, err error, want []byte) bool {
	ok := err == nil && code == http.StatusOK && bytes.Equal(body, want)
	tl.check(ok, func() string {
		return fmt.Sprintf("%s: status %d err %v body %q want %q", what, code, err, body, want)
	})
	return ok
}
