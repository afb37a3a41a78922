package selfish

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"greednet/internal/service"
)

// startService spins up a greedd server on an httptest listener with
// token buckets effectively disabled (the agents here step far faster
// than real clients would).
func startService(t *testing.T) (*service.Server, string) {
	t.Helper()
	s := service.New(service.Options{Burst: 1e9, Refill: 1e9})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(context.Background())
	})
	return s, ts.URL
}

// TestAgentClosedLoopImprovesUtility drives one climbing agent against
// a live service and checks the loop actually closes: the agent gets
// admitted, observes solved congestion, and its settled utility is no
// worse than the first point it saw.
func TestAgentClosedLoopImprovesUtility(t *testing.T) {
	_, base := startService(t)
	a := NewAgent(base, "climber", nil, AgentOptions{Rate0: 0.05, Seed: 1})

	ctx := context.Background()
	first, last := math.NaN(), math.NaN()
	for i := 0; i < 40; i++ {
		res, err := a.Step(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !res.Admitted {
			t.Fatalf("step %d: sole agent rejected (%s)", i, res.Shed)
		}
		if !math.IsNaN(res.Utility) {
			if math.IsNaN(first) {
				first = res.Utility
			}
			last = res.Utility
		}
	}
	if math.IsNaN(first) {
		t.Fatal("agent never observed a solved point")
	}
	if last < first-1e-9 {
		t.Fatalf("closed loop made things worse: first utility %v, last %v", first, last)
	}
}

// TestAgentRetreatsOnAdmissionRejection pins the backpressure path: a
// greedy newcomer whose rate would blow the incumbent's protection
// bound is rejected with the admission reason and halves its demand
// until the service lets it in.
func TestAgentRetreatsOnAdmissionRejection(t *testing.T) {
	_, base := startService(t)
	ctx := context.Background()

	incumbent := NewAgent(base, "inc", nil, AgentOptions{Rate0: 0.3, Seed: 2})
	if res, err := incumbent.Step(ctx); err != nil || !res.Admitted {
		t.Fatalf("incumbent not admitted: %+v, %v", res, err)
	}

	greedy := NewAgent(base, "greedy", nil, AgentOptions{Rate0: 0.9, Seed: 3})
	sawAdmissionShed := false
	admitted := false
	for i := 0; i < 10 && !admitted; i++ {
		res, err := greedy.Step(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.Shed == service.ReasonAdmission {
			sawAdmissionShed = true
		}
		admitted = res.Admitted
	}
	if !sawAdmissionShed {
		t.Fatal("greedy agent was never admission-rejected at rate 0.9 with N=2")
	}
	if !admitted {
		t.Fatalf("greedy agent never retreated into admission (rate now %v)", greedy.Rate())
	}
	if greedy.Rate() >= 0.5 {
		t.Fatalf("admitted rate %v should be below the N=2 pole 0.5", greedy.Rate())
	}
}

// TestAgentDeterministic pins the reproducibility contract: two agents
// with the same seed against identically configured servers trace the
// same rate trajectory.
func TestAgentDeterministic(t *testing.T) {
	_, baseA := startService(t)
	_, baseB := startService(t)
	a := NewAgent(baseA, "x", nil, AgentOptions{Rate0: 0.08, Seed: 9})
	b := NewAgent(baseB, "x", nil, AgentOptions{Rate0: 0.08, Seed: 9})
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		ra, errA := a.Step(ctx)
		rb, errB := b.Step(ctx)
		if errA != nil || errB != nil {
			t.Fatalf("step %d: errors %v, %v", i, errA, errB)
		}
		if ra.Rate != rb.Rate {
			t.Fatalf("step %d: trajectories diverge: %v vs %v", i, ra.Rate, rb.Rate)
		}
	}
}

// fakeSolveServer admits every update and answers every solve with the
// given status and body.
func fakeSolveServer(t *testing.T, code int, body string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/update", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"admitted":true,"clients":1,"bound":0.2}` + "\n"))
	})
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(code)
		_, _ = w.Write([]byte(body))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestAgentChecksSolveBody pins the solve leg's contract now that the
// agent no longer decodes the equilibrium vectors: a 2xx body that is
// not JSON fails the step, and a non-2xx still comes back as the typed
// shed.
func TestAgentChecksSolveBody(t *testing.T) {
	ctx := context.Background()
	a := NewAgent(fakeSolveServer(t, http.StatusOK, "not json"), "x", nil, AgentOptions{Seed: 1})
	if _, err := a.Step(ctx); err == nil {
		t.Fatalf("non-JSON 2xx solve body: err = %v, want a failed step", err)
	}

	shed := `{"status":"REJECTED","reason":"overload","detail":"queue full"}`
	a = NewAgent(fakeSolveServer(t, http.StatusServiceUnavailable, shed), "x", nil, AgentOptions{Seed: 1})
	res, err := a.Step(ctx)
	if err != nil || res.Shed != service.ReasonOverload || !res.Admitted {
		t.Fatalf("shed solve: %+v, %v; want an admitted step shed as %q", res, err, service.ReasonOverload)
	}
}
