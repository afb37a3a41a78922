package workload

import (
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/game"
)

func TestSymmetric(t *testing.T) {
	s := Symmetric(4, 0.25)
	if len(s.Users) != 4 || len(s.Start) != 4 || len(s.Labels) != 4 {
		t.Fatalf("bad shape: %+v", s)
	}
	if s.Free != nil {
		t.Error("symmetric users should all optimize")
	}
}

func TestFTPTelnetShape(t *testing.T) {
	s := FTPTelnet()
	if len(s.Users) != 4 || !s.Free[0] || s.Free[2] {
		t.Fatalf("bad ftp-telnet scenario: %+v", s.Free)
	}
}

func TestCheater(t *testing.T) {
	s := Cheater(2, 0.1)
	if len(s.Users) != 3 {
		t.Fatal("cheater should have victims+1 users")
	}
	if s.Free[0] || !s.Free[2] {
		t.Error("only the attacker optimizes")
	}
	if s.Labels[2] != "attacker" {
		t.Error("attacker label missing")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(3, 7)
	b := Random(3, 7)
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestParse(t *testing.T) {
	cases := []string{"symmetric:3,0.25", "ftptelnet", "cheater:2,0.1", "mixed", "random:4,9"}
	for _, spec := range cases {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
	for _, bad := range []string{"", "nope", "symmetric:0,0.2", "symmetric:3", "cheater:0,0.1", "random:2",
		"symmetric:NaN,0.2", "symmetric:3,NaN", "symmetric:3,-0.2", "symmetric:3,Inf", "symmetric:1e300,0.2",
		"symmetric:2097152,0.2", "random:2.7,1", "random:2,1.5", "cheater:2,0", "cheater:2,NaN", "cheater:1.5,0.1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestScenariosSolve(t *testing.T) {
	// Every canned scenario must admit a converged FS Nash solve.
	for _, s := range []Scenario{Symmetric(3, 0.25), FTPTelnet(), Cheater(2, 0.1), Mixed(), Random(3, 5)} {
		res, err := game.SolveNash(alloc.FairShare{}, s.Users, s.Start,
			game.NashOptions{Free: s.Free})
		if err != nil || !res.Converged {
			t.Errorf("%s: FS solve failed (%v)", s.Name, err)
		}
	}
}
