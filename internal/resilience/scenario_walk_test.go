package resilience

import (
	"context"
	"fmt"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/ftm"
)

// traitsForEdge derives the application characteristics a system must
// start with so that it sits exactly in the edge's From state and the
// trigger's semantics lead to the edge's To state.
func traitsForEdge(e core.ScenarioEdge) (core.AppTraits, bool) {
	t := core.AppTraits{Deterministic: true, StateAccess: true}
	switch e.From {
	case core.StPBRDet:
	case core.StPBRNonDet:
		t.Deterministic = false
	case core.StLFRState:
	case core.StLFRNoState:
		t.StateAccess = false
	case core.StLFRTR:
	case core.StADuplex, core.StNone:
		// The A&Duplex and dead-end states exist for both state-access
		// configurations; pick the one consistent with the edge.
		switch e.Trigger {
		case core.TrigStateAccess:
			t.StateAccess = false
		case core.TrigHardwareReplaced:
			t.StateAccess = false
		case core.TrigLessCriticalPhase:
			t.StateAccess = e.To == core.StLFRState
		case core.TrigAppDeterminism:
			t.StateAccess = false
			t.Deterministic = false
		case core.TrigAppNonDeterminism:
			t.StateAccess = false
		}
		if e.From == core.StNone {
			t.Deterministic = false
			if e.Trigger == core.TrigAppDeterminism {
				t.Deterministic = false // restored by the trigger itself
			}
		}
	default:
		return t, false
	}
	return t, true
}

// TestScenarioGraphWalk drives every mandatory and possible inter-FTM
// edge of Figure 8 end-to-end: a real two-replica system is deployed in
// the edge's From state, the trigger is injected, and the system must
// arrive in the edge's To state with the corresponding FTM actually
// deployed (verified by live scheme introspection, not bookkeeping).
func TestScenarioGraphWalk(t *testing.T) {
	for i, e := range core.ScenarioGraph() {
		if e.Kind == core.Intra {
			continue // exercised by TestIntraTransitionUpdatesTraitsOnly
		}
		e := e
		name := fmt.Sprintf("%02d_%s__%s__%s", i, e.From, e.Trigger, e.To)
		t.Run(name, func(t *testing.T) {
			traits, ok := traitsForEdge(e)
			if !ok {
				t.Fatalf("no trait derivation for %s", e)
			}

			// Resolve the FTM the From state runs (the dead end deploys
			// the last FTM before the dead end was entered: A&LFR).
			var startFTM core.ID
			if e.From == core.StNone {
				startFTM = core.ALFR
			} else {
				id, err := core.FTMFor(e.From, traits)
				if err != nil {
					t.Fatalf("FTMFor(%s): %v", e.From, err)
				}
				startFTM = id
			}

			sys, err := ftm.NewSystem(context.Background(), ftm.SystemConfig{
				System:            "walk",
				FTM:               startFTM,
				HeartbeatInterval: 50 * time.Millisecond,
				SuspectTimeout:    10 * time.Second,
			})
			if err != nil {
				t.Fatalf("NewSystem(%s): %v", startFTM, err)
			}
			defer sys.Shutdown()

			svc := New(Config{
				Group:      SystemGroup(sys, nil),
				FaultModel: core.MustLookup(startFTM).Tolerates,
				Traits:     traits,
				Manager:    AutoApprove{},
			})
			if e.From == core.StNone {
				// Enter the dead end for real first.
				d := svc.HandleTrigger(context.Background(), core.TrigAppNonDeterminism)
				if d.Action != ActionDeadEnd {
					t.Fatalf("dead-end setup: %s", d)
				}
			}

			d := svc.HandleTrigger(context.Background(), e.Trigger)

			if e.To == core.StNone {
				if d.Action != ActionDeadEnd {
					t.Fatalf("edge %s: action %s, want dead end (%v)", e, d.Action, d.Err)
				}
				return
			}
			if d.Action != ActionTransition {
				t.Fatalf("edge %s: action %s (%v)", e, d.Action, d.Err)
			}
			_, traitsAfter, _ := svc.Model()
			wantFTM, err := core.FTMFor(e.To, traitsAfter)
			if err != nil {
				t.Fatalf("FTMFor(%s): %v", e.To, err)
			}
			m := sys.Master()
			if m.FTM() != wantFTM {
				t.Fatalf("edge %s: deployed %s, want %s", e, m.FTM(), wantFTM)
			}
			scheme, err := m.CurrentScheme()
			if err != nil {
				t.Fatal(err)
			}
			if scheme != core.MustLookup(wantFTM).MasterScheme {
				t.Fatalf("edge %s: live scheme %+v does not match %s", e, scheme, wantFTM)
			}
			// The arrived state round-trips.
			st, err := core.StateFor(m.FTM(), traitsAfter)
			if err != nil {
				t.Fatal(err)
			}
			if st != e.To && !(e.To == core.StADuplex && (st == core.StADuplex)) {
				t.Fatalf("edge %s: arrived in %s", e, st)
			}
		})
	}
}
