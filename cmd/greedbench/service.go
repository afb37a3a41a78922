package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"greednet/internal/chaos"
	"greednet/internal/selfish"
	"greednet/internal/service"
)

// The service layer: a deterministic load harness for the greedd
// service.  It boots the service in-process on a loopback listener,
// drives it with hill-climbing selfish agents (the closed control
// loop) interleaved with all four service-level chaos injectors
// (slow-client, stalled-connection, malformed-payload, deadline-skew),
// and records request-latency percentiles, shed accounting by typed
// reason, cache effectiveness, and the drain verdict.  The budgets
// cover the failure modes the service exists to prevent: queue growth
// past its bound, rejections without a typed reason, handler panics,
// a dirty drain, and goroutines leaked across it.

const (
	serviceClients  = 1000
	serviceRounds   = 2
	serviceSeed     = 7
	serviceQueueCap = 64
	serviceCase     = "c1000"
)

// typedReasons is the service's rejection vocabulary; each reason has
// its own shed_<reason> row and anything else counts as untyped.
var typedReasons = []string{
	service.ReasonAdmission, service.ReasonOverload, service.ReasonDeadline,
	service.ReasonMalformed, service.ReasonDraining, service.ReasonPanic,
	service.ReasonUncertified,
}

func serviceRows() []Row {
	rows := []Row{
		row(serviceCase, "drivers"),
		row(serviceCase, "drive_ms"),
		atLeast(serviceCase, "requests", 1),
		atLeast(serviceCase, "succeeded", 1),
		atLeast(serviceCase, "latency_samples", 1),
		row(serviceCase, "p50_ms"),
		row(serviceCase, "p95_ms"),
		row(serviceCase, "p99_ms"),
	}
	for _, reason := range typedReasons {
		rows = append(rows, row(serviceCase, "shed_"+reason))
	}
	return append(rows,
		atMost(serviceCase, "untyped_sheds", 0),
		row(serviceCase, "shed_rate"),
		row(serviceCase, "solves_run"),
		row(serviceCase, "cache_hits"),
		row(serviceCase, "coalesced"),
		row(serviceCase, "cache_hit_rate"),
		atMost(serviceCase, "panics", 0),
		atMost(serviceCase, "queue_max", serviceQueueCap),
		row(serviceCase, "stalled_conns"),
		row(serviceCase, "drain_ms"),
		atLeast(serviceCase, "drain_clean", 1),
		atMost(serviceCase, "leaked_goroutines", 0))
}

// timingTransport measures every round trip into its driver's sample
// slice.  Each driver owns one instance, so no locking.
type timingTransport struct {
	inner *http.Transport
	lat   *[]float64 // milliseconds
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	*t.lat = append(*t.lat, float64(time.Since(start).Nanoseconds())/1e6)
	return resp, err
}

// serviceDriver runs one slice of the client population on its own
// goroutine: each of its clients is a hill-climbing agent plus a chaos
// schedule drawn from the driver's seeded injector.
type serviceDriver struct {
	base    string
	tcpAddr string
	agents  []*selfish.Agent
	inj     *chaos.ServiceInjector
	hc      *http.Client
	tr      *timingTransport

	lat      []float64
	requests int64
	success  int64
	shed     map[string]int64
	untyped  int64
	stalled  []net.Conn
	err      error
}

func newServiceDriver(base string, seed int64) *serviceDriver {
	d := &serviceDriver{
		base:    base,
		tcpAddr: base[len("http://"):],
		shed:    make(map[string]int64),
		inj: chaos.NewServiceInjector(seed, chaos.ServiceInjector{
			SlowEvery:   40,
			SlowDelay:   2 * time.Millisecond,
			StallProb:   0.01,
			MalformProb: 0.05,
			SkewProb:    0.05,
		}),
	}
	d.tr = &timingTransport{
		inner: &http.Transport{MaxIdleConnsPerHost: 4},
		lat:   &d.lat,
	}
	d.hc = &http.Client{Transport: d.tr, Timeout: 30 * time.Second}
	return d
}

// addAgent registers one climbing client with this driver.  Rates are
// scaled so a population of n greedy-but-retreating agents can actually
// be admitted under the protection bound (each must keep n·r < 1).
func (d *serviceDriver) addAgent(id string, seed int64) {
	scale := 1.0 / serviceClients
	d.agents = append(d.agents, selfish.NewAgent(d.base, id, d.hc, selfish.AgentOptions{
		Rate0:      0.4 * scale,
		Step0:      0.1 * scale,
		Lo:         0.01 * scale,
		Hi:         0.95,
		DeadlineMS: 25,
		Seed:       seed,
	}))
}

// run drives every agent through every round.  One chaos decision is
// drawn per agent-round: a stalled connection or a malformed payload
// replaces that round's traffic (the client misbehaved instead of
// participating); a skewed deadline adds a poisoned solve on top of the
// normal step.
func (d *serviceDriver) run(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	for round := 0; round < serviceRounds; round++ {
		if ctx.Err() != nil {
			return
		}
		for _, a := range d.agents {
			if delay := d.inj.Delay(); delay > 0 {
				time.Sleep(delay)
			}
			if d.inj.Stall() {
				d.stallConn()
				continue
			}
			if body := d.inj.MutateBody(d.updateBody(a)); !bytes.Equal(body, d.updateBody(a)) {
				d.rawPost("/v1/update", body)
				continue
			}
			if ms := d.inj.SkewDeadline(25); ms != 25 {
				// A skew-clocked client retries hard: the volley both
				// exercises the typed deadline rejection and presses the
				// per-client token bucket into overload shedding.
				skew, merr := json.Marshal(service.SolveRequest{Client: a.ID(), DeadlineMS: ms})
				if merr == nil {
					for burst := 0; burst < 4; burst++ {
						d.rawPost("/v1/solve", skew)
					}
				}
			}
			res, err := a.Step(ctx)
			d.requests += 3 // update + solve + congestion legs
			if err != nil {
				d.err = err
				return
			}
			if res.Shed == "" {
				d.success++
			} else {
				d.recordShed(res.Shed)
			}
		}
	}
}

func (d *serviceDriver) updateBody(a *selfish.Agent) []byte {
	body, err := json.Marshal(service.UpdateRequest{Client: "chaos", Rate: a.Rate()})
	if err != nil {
		return []byte(`{"client":"chaos","rate":0.0001}`)
	}
	return body
}

// recordShed tallies a rejection reason, counting anything outside the
// service's typed vocabulary as untyped.
func (d *serviceDriver) recordShed(reason string) {
	if slices.Contains(typedReasons, reason) {
		d.shed[reason]++
	} else {
		d.untyped++
	}
}

// rawPost sends a raw (possibly corrupt) body and tallies the typed
// rejection it must come back with.
func (d *serviceDriver) rawPost(path string, body []byte) {
	d.requests++
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		d.untyped++
		return
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 == 2 {
		// A mutation can survive as valid JSON (or a skewed-but-positive
		// budget can be met); success is not a shed.
		d.success++
		return
	}
	var rej service.Rejection
	if json.NewDecoder(resp.Body).Decode(&rej) != nil {
		d.untyped++
		return
	}
	d.recordShed(rej.Reason)
}

// stallConn opens a connection, sends an incomplete request, and walks
// away — the half-open client the server must carry without wedging.
// The connections are closed after the drive so the drain check proves
// their handlers exit.
func (d *serviceDriver) stallConn() {
	conn, err := net.DialTimeout("tcp", d.tcpAddr, time.Second)
	if err != nil {
		return
	}
	_, _ = conn.Write([]byte("POST /v1/update HTTP/1.1\r\nHost: greedd\r\nContent-Length: 512\r\n\r\n{\"client\":"))
	d.stalled = append(d.stalled, conn)
}

// percentile returns the p-th percentile (0 < p ≤ 1) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// measureService boots the service, runs the chaos load drive and its
// drain, and sets the layer's rows.
func measureService(v values) error {
	baseline := runtime.NumGoroutine()

	// MaxClients is deliberately far below the driven population: the
	// harness's point is a thousand clients pressing against a service
	// sized for a hundred, so the admission, overload, and deadline shed
	// paths all fire for real while the admitted core still closes its
	// control loop.
	svc := service.New(service.Options{
		Workers:      2,
		QueueCap:     serviceQueueCap,
		MaxClients:   128,
		SolveTimeout: 250 * time.Millisecond,
		// Tight enough that a chaos burst (skewed solve stacked on a
		// normal step) can trip a client's bucket, loose enough that the
		// steady control loop stays admitted.
		Burst:  4,
		Refill: 100,
	})
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	//lint:fanout http-serve runs the harness listener's accept loop; exits when the drive completes and Shutdown closes the listener, reporting into the buffered serveErr channel
	go func() { serveErr <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	nDrivers := min(runtime.GOMAXPROCS(0), serviceClients)
	drivers := make([]*serviceDriver, nDrivers)
	for i := range drivers {
		drivers[i] = newServiceDriver(base, serviceSeed+int64(1000+i))
	}
	for i := 0; i < serviceClients; i++ {
		drivers[i%nDrivers].addAgent(fmt.Sprintf("c%04d", i), serviceSeed+int64(i))
	}

	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for _, d := range drivers {
		wg.Add(1)
		//lint:fanout load-driver drives its slice of agents through the chaos schedule; exits when its rounds complete, joined via wg.Wait below
		go d.run(ctx, &wg)
	}
	wg.Wait()
	v.set(serviceCase, "drive_ms", float64(time.Since(start).Nanoseconds())/1e6)

	// Server-side counters before shutdown (drain rejections would
	// otherwise pollute the shed accounting).
	var stats service.Stats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}

	// The misbehaving clients go away; the drain must release their
	// handlers and every worker.
	var requests, succeeded, untyped, sheds int64
	var stalled int
	shed := make(map[string]int64)
	var all []float64
	for _, d := range drivers {
		if d.err != nil {
			return fmt.Errorf("driver error: %w", d.err)
		}
		requests += d.requests
		succeeded += d.success
		untyped += d.untyped
		stalled += len(d.stalled)
		for reason, n := range d.shed {
			shed[reason] += n
			sheds += n
		}
		all = append(all, d.lat...)
		for _, conn := range d.stalled {
			_ = conn.Close()
		}
		d.tr.inner.CloseIdleConnections()
	}
	sort.Float64s(all)
	cacheHitRate := 0.0
	if stats.Solves > 0 {
		cacheHitRate = float64(stats.CacheHits) / float64(stats.Solves)
	}

	drainStart := time.Now()
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	httpErr := httpSrv.Shutdown(sctx)
	svcErr := svc.Shutdown(sctx)
	<-serveErr // accept loop has exited
	drain := time.Since(drainStart)
	drainClean := httpErr == nil && svcErr == nil

	// Give trailing goroutines (connection handlers observing their
	// closed sockets) a beat to exit before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	leaked := max(runtime.NumGoroutine()-baseline, 0)

	v.set(serviceCase, "drivers", float64(nDrivers))
	v.set(serviceCase, "requests", float64(requests))
	v.set(serviceCase, "succeeded", float64(succeeded))
	v.set(serviceCase, "latency_samples", float64(len(all)))
	v.set(serviceCase, "p50_ms", percentile(all, 0.50))
	v.set(serviceCase, "p95_ms", percentile(all, 0.95))
	v.set(serviceCase, "p99_ms", percentile(all, 0.99))
	for _, reason := range typedReasons {
		v.set(serviceCase, "shed_"+reason, float64(shed[reason]))
	}
	v.set(serviceCase, "untyped_sheds", float64(untyped))
	v.set(serviceCase, "shed_rate", float64(sheds+untyped)/float64(max(requests, 1)))
	v.set(serviceCase, "solves_run", float64(stats.SolvesRun))
	v.set(serviceCase, "cache_hits", float64(stats.CacheHits))
	v.set(serviceCase, "coalesced", float64(stats.Coalesced))
	v.set(serviceCase, "cache_hit_rate", cacheHitRate)
	v.set(serviceCase, "panics", float64(stats.Panics))
	v.set(serviceCase, "queue_max", float64(stats.QueueMax))
	v.set(serviceCase, "stalled_conns", float64(stalled))
	v.set(serviceCase, "drain_ms", float64(drain.Nanoseconds())/1e6)
	v.set(serviceCase, "drain_clean", boolValue(drainClean))
	v.set(serviceCase, "leaked_goroutines", float64(leaked))
	return nil
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
