package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"greednet/internal/cliutil"
	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/service"
)

// conns is the number of HTTP connections the load generators share;
// with nproc = 2 each connection has a processor to itself.
const conns = 2

// greedd is one in-process greedd on a loopback listener.
type greedd struct {
	svc    *service.Server
	srv    *http.Server
	ln     net.Listener
	base   string
	hc     *http.Client
	tr     *http.Transport
	served chan error
	// opened counts TCP connections the server accepted.
	opened atomic.Int64
	// rec, when set, receives spans from the timing middleware and the
	// client transport; solveBytes and solveBodies measure solve
	// response size while it is set.
	rec                     atomic.Pointer[recorder]
	solveBytes, solveBodies atomic.Int64
}

// startGreedd boots the service with default options behind
// svc.Handler().  With traced set, a timing middleware wraps the
// handler; it records spans only while g.rec is set.
func startGreedd(traced bool) (*greedd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if !ln.Addr().(*net.TCPAddr).IP.IsLoopback() {
		_ = ln.Close()
		return nil, fmt.Errorf("listener %v is not loopback", ln.Addr())
	}
	g := &greedd{svc: service.New(service.Options{}), ln: ln, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	g.svc.Start()
	h := g.svc.Handler()
	if traced {
		h = g.timed(h)
	}
	g.srv = &http.Server{Handler: h, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			g.opened.Add(1)
		}
	}}
	//lint:fanout http-serve accepts loopback connections until stop shuts the server down
	go func() { g.served <- g.srv.Serve(ln) }()
	g.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	g.hc = &http.Client{Transport: &benchTransport{base: g.tr, g: g}}
	return g, nil
}

// stop shuts the HTTP server, then drains the service, and waits for
// both.
func (g *greedd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g.tr.CloseIdleConnections()
	err := g.srv.Shutdown(ctx)
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, g.svc.Shutdown(ctx))
}

// stats reads /v1/stats.
func (g *greedd) stats() (service.Stats, error) {
	var st service.Stats
	code, err := g.call(context.Background(), "GET", "/v1/stats", nil, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("stats: status %d", code)
	}
	return st, err
}

// call performs one JSON round trip and decodes a 2xx body into out.
func (g *greedd) call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader = http.NoBody
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: bad body: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// admit posts one client's first update; anything but 200 is an error,
// since every workload's population is sized to pass admission.
func (g *greedd) admit(id string, rate float64, spec string) error {
	var ur service.UpdateResponse
	code, err := g.call(context.Background(), "POST", "/v1/update",
		service.UpdateRequest{Client: id, Rate: rate, Utility: spec}, &ur)
	if err != nil {
		return fmt.Errorf("admit %s: %w", id, err)
	}
	if code != http.StatusOK || !ur.Admitted {
		return fmt.Errorf("admit %s at rate %v: status %d", id, rate, code)
	}
	return nil
}

// specs are the utility classes every greedd workload assigns
// round-robin.
var specs = []string{"linear:1,4", "linear:1,2", "log:2,1", "sqrt:1,2"}

// serviceNash mirrors the Nash options service.Options defaults to, so
// a replayed solve does the same work as the service's.
var serviceNash = game.NashOptions{MaxIter: 200, Tol: 1e-6}

// population is a generated set of greedd clients.
type population struct {
	ids   []string // sorted, the service's canonical order
	specs []string
	us    core.Profile
	rates []float64 // initial (climb) or fixed (poll) demands
}

// genPopulation draws n clients: utility specs round-robin, rates
// uniform in [lo, hi).
func genPopulation(rng *rand.Rand, prefix string, n int, lo, hi float64) population {
	p := population{ids: make([]string, n), specs: make([]string, n), us: make(core.Profile, n), rates: make([]float64, n)}
	for i := range n {
		p.ids[i] = fmt.Sprintf("%s%04d", prefix, i)
		p.specs[i] = specs[i%len(specs)]
		u, err := cliutil.ParseUtility(p.specs[i])
		if err != nil {
			panic(err) // specs is a constant table of valid specs
		}
		p.us[i] = u
		p.rates[i] = lo + rng.Float64()*(hi-lo)
	}
	return p
}

// setUp boots greedd and admits the population, repeating the whole
// set-up reps times and keeping the last server; it returns the
// set-up times in seconds.  With prime set, each set-up ends with one
// solve, whose answer is checked like any other.
func setUp(res *result, traced bool, p population, reps int, prime bool) (*greedd, []float64, error) {
	var times []float64
	var g *greedd
	for range reps {
		if g != nil {
			if err := g.stop(); err != nil {
				return nil, nil, fmt.Errorf("stop set-up server: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if g, err = startGreedd(traced); err != nil {
			return nil, nil, err
		}
		for i, id := range p.ids {
			if err := g.admit(id, p.rates[i], p.specs[i]); err != nil {
				return nil, nil, errors.Join(err, g.stop())
			}
		}
		if prime {
			var sr service.SolveResponse
			code, err := g.call(context.Background(), "POST", "/v1/solve", service.SolveRequest{Client: p.ids[0]}, &sr)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			if err == nil {
				err = checkSolve(&sr, len(p.ids))
			}
			res.attempted++
			if err != nil {
				res.failOp("priming solve: " + err.Error())
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return g, times, nil
}

// Trace context travels from the load generator to the handler in two
// headers, so server spans join the client span that caused them.
const (
	hdrTrace  = "X-Perfbench-Trace"
	hdrParent = "X-Perfbench-Parent"
)

// op names the layer operation behind a request path.
func op(path string) string {
	return strings.TrimPrefix(path, "/v1/")
}

// timed wraps the service handler in a span per call.
func (g *greedd) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := g.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		trace, _ := strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		note := ""
		if r.URL.Path == "/v1/solve" && cw.code == http.StatusOK {
			g.solveBytes.Add(cw.n)
			g.solveBodies.Add(1)
			note = cw.outcome
		}
		rec.addNoted(trace, 0, parent, "service."+op(r.URL.Path), note, start, end)
	})
}

// countingWriter counts the body bytes a handler writes and classifies
// a solve body as served from the cache ("hit"), joined to another
// request's solve ("coalesced") or solved for this request ("ran").
type countingWriter struct {
	http.ResponseWriter
	n       int64
	code    int
	outcome string
}

func (c *countingWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	if c.outcome == "" {
		// Profile keys and client ids hold no quote, so these fields
		// cannot be spoofed by a key.
		switch {
		case bytes.Contains(p, []byte(`"cached":true`)):
			c.outcome = "hit"
		case bytes.Contains(p, []byte(`"coalesced":true`)):
			c.outcome = "coalesced"
		default:
			c.outcome = "ran"
		}
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// opCtx is the per-operation state a load generator threads through a
// request's context: the trace the spans join, and the captured body of
// the operation's last 2xx solve, which the answer checks read after
// the operation's clock has stopped.
type opCtx struct {
	trace, parent uint64
	solveBody     []byte
}

type opCtxKey struct{}

func withOp(ctx context.Context, o *opCtx) context.Context {
	return context.WithValue(ctx, opCtxKey{}, o)
}

// benchTransport reads every response body to the end inside the round
// trip, so a round trip's time includes the body transfer.  It captures
// 2xx solve bodies into the request's opCtx and, while tracing, records
// one client span per round trip.
type benchTransport struct {
	base http.RoundTripper
	g    *greedd
}

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	o, _ := req.Context().Value(opCtxKey{}).(*opCtx)
	rec := t.g.rec.Load()
	if o == nil {
		rec = nil
	}
	var id uint64
	if rec != nil {
		id = rec.newID()
		req = req.Clone(req.Context())
		req.Header.Set(hdrTrace, strconv.FormatUint(o.trace, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("read %s body: %w", req.URL.Path, err)
	}
	if rec != nil {
		rec.add(o.trace, id, o.parent, "http."+op(req.URL.Path), start, time.Now())
	}
	if o != nil && req.URL.Path == "/v1/solve" && resp.StatusCode == http.StatusOK {
		o.solveBody = body
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// statsDelta is the service's counter movement over a timed phase.
type statsDelta struct {
	before, after service.Stats
}

// metrics renders the counter-derived service.* metrics; ops is the
// number of requests the phase attempted.
func (d statsDelta) metrics(m metricSet, ops int64) {
	a, b := d.after, d.before
	solves := a.Solves - b.Solves
	m.set("service.cache_hit_frac", frac(a.CacheHits-b.CacheHits, solves))
	m.set("service.coalesced_frac", frac(a.Coalesced-b.Coalesced, solves))
	m.set("service.solves_run", float64(a.SolvesRun-b.SolvesRun))
	m.set("service.queue_max", float64(a.QueueMax))
	m.set("service.shed_admission_frac", frac(a.RejectedAdmission-b.RejectedAdmission, ops))
	m.set("service.shed_overload_frac", frac(a.ShedOverload-b.ShedOverload, ops))
	m.set("service.shed_deadline_frac", frac(a.ShedDeadline-b.ShedDeadline, ops))
}

// handlerMetrics renders the span-derived service.* and http.* metrics.
func (g *greedd) handlerMetrics(m metricSet, spans []span) {
	self := selfTimes(spans)
	m.set("service.update_ms", byName(spans, "service.update", "*", nil).p50().Value)
	solve := byName(spans, "service.solve", "*", nil)
	m.set("service.solve_ms", solve.p50().Value)
	m.set("service.solve_p99_ms", solve.tail().Value)
	m.set("service.congestion_ms", byName(spans, "service.congestion", "*", nil).p50().Value)
	over := &outcomes{}
	for _, name := range []string{"http.update", "http.solve", "http.congestion"} {
		over.merge(byName(spans, name, "*", self))
	}
	m.set("http.overhead_ms", over.p50().Value)
	if n := g.solveBodies.Load(); n > 0 {
		m.set("service.resp_kb", float64(g.solveBytes.Load())/float64(n)/1024)
	}
}
