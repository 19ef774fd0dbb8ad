package ftm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/fscript"
)

func TestDeployValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ReplicaConfig
		want []string // substrings of the error
	}{
		{"missing system", ReplicaConfig{FTM: core.PBR, Role: core.RoleMaster, App: NewCalculator()}, nil},
		{"missing app", ReplicaConfig{System: "x", FTM: core.PBR, Role: core.RoleMaster}, nil},
		{"unknown ftm", ReplicaConfig{System: "x", FTM: "bogus", Role: core.RoleMaster, App: NewCalculator()}, nil},
		{"bad role", ReplicaConfig{System: "x", FTM: core.PBR, Role: "viceroy", App: NewCalculator()}, nil},
		// The host already runs its detector for beta at the pair's
		// 10ms / 60ms: a second group cannot pair the same hosts at
		// another timing.
		{"detector timing", ReplicaConfig{System: "x", FTM: core.PBR, Role: core.RoleMaster, App: NewCalculator(),
			Peer: "beta", HeartbeatInterval: 20 * time.Millisecond, SuspectTimeout: 60 * time.Millisecond},
			[]string{"10ms / 60ms", "20ms / 60ms"}},
	}
	s := newTestSystem(t, core.PBR) // reuse a live host
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewReplica(context.Background(), s.Hosts()[0], tc.cfg)
			if err == nil {
				t.Fatal("invalid config deployed")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %q", err, w)
				}
			}
		})
	}
	if s.Hosts()[0].Runtime().Exists("x") {
		t.Fatal("a refused deployment left its composite behind")
	}
}

func TestDetectorStatusService(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	master := s.Master()
	rt := master.Host().Runtime()
	det, err := rt.Lookup(master.Path() + "/" + NameDetector)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := det.ServiceEndpoint("status")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := svc.Invoke(context.Background(), component.NewMessage("query", nil))
	if err != nil {
		t.Fatal(err)
	}
	if suspected, _ := reply.Payload.(bool); suspected {
		t.Fatal("healthy peer reported suspected")
	}
	s.CrashSlave()
	waitUntil(t, 5*time.Second, func() bool {
		reply, err := svc.Invoke(context.Background(), component.NewMessage("query", nil))
		if err != nil {
			return false
		}
		suspected, _ := reply.Payload.(bool)
		return suspected
	}, "detector status never reported the crashed peer")
}

func TestDetectorStopsOnComponentStop(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	master := s.Master()
	rt := master.Host().Runtime()
	// Stopping the detector component runs OnStop (halting its loops);
	// restarting brings them back.
	if err := rt.Stop(context.Background(), master.Path()+"/"+NameDetector); err != nil {
		t.Fatalf("stop detector: %v", err)
	}
	if err := rt.Start(context.Background(), master.Path()+"/"+NameDetector); err != nil {
		t.Fatalf("restart detector: %v", err)
	}
	// Failover still works with the restarted detector.
	s.CrashSlave()
	waitUntil(t, 5*time.Second, func() bool {
		return s.Master() != nil && s.Master() == master
	}, "master lost after detector restart")
}

func TestReplicaKill(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	slave := s.Slave()
	slave.Kill()
	if !slave.Host().Crashed() {
		t.Fatal("Kill did not crash the host")
	}
}

func TestRBRangeAcceptance(t *testing.T) {
	s, app := rbSystem(t, core.RBPBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	master := s.Master()
	rt := master.Host().Runtime()
	// A range acceptance test: results beyond the bound are rejected and
	// recovered through the alternate... which computes the same large
	// value, so the request fails rather than answering out-of-range.
	script := fscript.MustParse(`set rb/proceed.acceptance = "range:1000"`)
	if _, err := fscript.Execute(context.Background(), rt, script, fscript.Env{}); err != nil {
		t.Fatal(err)
	}
	if got := invoke(t, c, "set:x", 999); got != 999 {
		t.Fatalf("in-range set = %d", got)
	}
	_, err = c.Invoke(context.Background(), "set:x", EncodeArg(5000))
	if err == nil {
		t.Fatal("out-of-range result accepted by the range test")
	}
	// The failed request rolled back: x is still 999.
	if got := invoke(t, c, "get:x", 0); got != 999 {
		t.Fatalf("state after rejected request = %d, want 999", got)
	}
	_ = app
}

func TestUnknownReplicaMessage(t *testing.T) {
	s := newTestSystem(t, core.PBR)
	svc, err := s.Master().boundary(SvcReplica)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(context.Background(), component.Message{Op: "bogus.kind"}); !errors.Is(err, component.ErrUnknownOp) {
		t.Fatalf("err = %v, want ErrUnknownOp", err)
	}
}

func TestProtocolPropertyValidation(t *testing.T) {
	p := newProtocolContent("sys")
	if err := p.SetProperty("role", 42); err == nil {
		t.Error("numeric role accepted")
	}
	if err := p.SetProperty("control", "not-a-control"); err == nil {
		t.Error("bogus control accepted")
	}
	if err := p.SetProperty("assertLimit", "three"); err == nil {
		t.Error("bogus assertLimit accepted")
	}
	if err := p.SetProperty("assertLimit", 5); err != nil {
		t.Errorf("valid assertLimit rejected: %v", err)
	}
	if err := p.SetProperty("role", core.RoleMaster); err != nil {
		t.Errorf("typed role rejected: %v", err)
	}
	if p.Role() != core.RoleMaster {
		t.Error("role not applied")
	}
}

func TestTMRDeciderValidation(t *testing.T) {
	p := &tmrProceed{}
	if err := p.SetProperty("decider", "coin-flip"); err == nil {
		t.Error("bogus decider accepted")
	}
	if err := p.SetProperty("decider", 7); err == nil {
		t.Error("numeric decider accepted")
	}
	if err := p.SetProperty("decider", DecideMedian); err != nil {
		t.Errorf("valid decider rejected: %v", err)
	}
	// Unrelated properties are inert.
	if err := p.SetProperty("color", "red"); err != nil {
		t.Errorf("unrelated property rejected: %v", err)
	}
}
