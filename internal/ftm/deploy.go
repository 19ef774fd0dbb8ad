package ftm

import (
	"context"
	"fmt"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/host"
	"resilientft/internal/transport"
)

// ReplicaConfig describes one replica of a fault-tolerant application.
type ReplicaConfig struct {
	// System names the protected application; it is also the composite
	// path on the host and the key under which configurations are
	// committed to stable storage.
	System string
	// Group is the replica group (shard) this replica belongs to, empty
	// in unsharded deployments. It is stamped on every rpc request and
	// inter-replica envelope of the group, and it keys the dispatch when
	// several groups share one endpoint.
	Group string
	// FTM selects the mechanism to deploy.
	FTM core.ID
	// Role is this replica's initial role.
	Role core.Role
	// Peer is the other replica's address (empty for single-host FTMs).
	Peer transport.Address
	// App is the protected application.
	App Application
	// Retention bounds the reply log (responses per client).
	Retention int
	// HeartbeatInterval and SuspectTimeout tune the host's failure
	// detector for Peer; every replica pairing the same two hosts must
	// agree on them.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
}

func (cfg ReplicaConfig) validate() error {
	if cfg.System == "" {
		return fmt.Errorf("ftm: replica config without system name")
	}
	// The system name becomes the composite path and appears verbatim in
	// generated transition scripts, whose words admit only letters,
	// digits, '_' and '-'; anything else (notably '.', the fscript
	// member separator) would make every later promotion fail. Reject it
	// at deploy time instead.
	for _, c := range cfg.System {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return fmt.Errorf("ftm: system name %q: character %q not allowed in a component path", cfg.System, c)
		}
	}
	if cfg.App == nil {
		return fmt.Errorf("ftm: replica config without application")
	}
	if _, err := core.Lookup(cfg.FTM); err != nil {
		return err
	}
	if cfg.Role != core.RoleMaster && cfg.Role != core.RoleSlave {
		return fmt.Errorf("ftm: bad role %q", cfg.Role)
	}
	return nil
}

// wireDeclaredRefs wires every declared reference of the component at
// path according to the static wiring plan, skipping targets that do not
// exist in this composite (e.g. no peer on single-host FTMs).
func wireDeclaredRefs(rt *component.Runtime, compositePath, name string) error {
	path := compositePath + "/" + name
	c, err := rt.Lookup(path)
	if err != nil {
		return err
	}
	for _, ref := range c.Definition().References {
		target, ok := refTarget[ref.Name]
		if !ok {
			return fmt.Errorf("ftm: no wiring plan for reference %q of %s", ref.Name, path)
		}
		targetPath := compositePath + "/" + target[0]
		if !rt.Exists(targetPath) {
			if ref.Required {
				return fmt.Errorf("ftm: required reference %q of %s targets missing %s", ref.Name, path, targetPath)
			}
			continue
		}
		if err := rt.Wire(path, ref.Name, targetPath, target[1]); err != nil {
			return err
		}
	}
	return nil
}

// DeployFTM assembles a complete FTM composite on a host: every
// component is deployed from its bundle through the host's registry
// (bundle verification + linking — the full-deployment cost of Table 3),
// wired per the Figure 6 architecture, promoted and started. control
// receives the protocol's escalations. It returns the composite path.
func DeployFTM(ctx context.Context, h *host.Host, cfg ReplicaConfig, control Control) (string, error) {
	if err := cfg.validate(); err != nil {
		return "", err
	}
	rt := h.Runtime()
	if rt == nil {
		return "", host.ErrCrashed
	}
	desc := core.MustLookup(cfg.FTM)
	if desc.Hosts >= 2 {
		// Refuse before building anything: the detector component would
		// only find the timing conflict when it subscribes at start.
		if err := h.CheckDetector(cfg.Peer, cfg.HeartbeatInterval, cfg.SuspectTimeout); err != nil {
			return "", err
		}
	}
	scheme := desc.Scheme(cfg.Role)
	path := cfg.System

	if _, err := rt.AddComposite(path); err != nil {
		return "", err
	}

	retention := cfg.Retention
	if retention <= 0 {
		retention = 64
	}

	// Infrastructure components (the stable common parts).
	infra := []struct {
		typ   string
		props map[string]any
		skip  bool
	}{
		{typ: TypeProtocol, props: map[string]any{
			"system": cfg.System, "role": string(cfg.Role), "control": control,
		}},
		{typ: TypeReplyLog, props: map[string]any{"retention": retention}},
		{typ: TypeServer, props: map[string]any{"app": cfg.App}},
		{typ: TypePeer, props: map[string]any{
			"endpoint": h.Endpoint(), "peer": string(cfg.Peer), "system": cfg.System,
			"group": cfg.Group,
		}, skip: desc.Hosts < 2},
		{typ: TypeDetector, props: map[string]any{
			"host": h, "peer": string(cfg.Peer),
			"interval": cfg.HeartbeatInterval, "timeout": cfg.SuspectTimeout,
		}, skip: desc.Hosts < 2},
	}
	for _, item := range infra {
		if item.skip {
			continue
		}
		def, err := infraDefinition(item.typ)
		if err != nil {
			return "", err
		}
		def.Properties = item.props
		if _, err := rt.AddComponent(path, def); err != nil {
			return "", err
		}
	}

	// Variable-feature bricks per the FTM's Table 2 scheme.
	slots := scheme.Slots()
	for _, slot := range []string{core.SlotBefore, core.SlotProceed, core.SlotAfter} {
		typ := slots[slot]
		if typ == "" {
			return "", fmt.Errorf("ftm: %s has no %s brick for role %s", cfg.FTM, slot, cfg.Role)
		}
		def, err := brickDefinition(typ)
		if err != nil {
			return "", err
		}
		def.Name = slot
		if _, err := rt.AddComponent(path, def); err != nil {
			return "", err
		}
	}

	// Wiring per the static plan.
	names := []string{NameProtocol, NameReplyLog, NameServer, core.SlotBefore, core.SlotProceed, core.SlotAfter}
	if desc.Hosts >= 2 {
		names = append(names, NamePeer, NameDetector)
	}
	for _, name := range names {
		if err := wireDeclaredRefs(rt, path, name); err != nil {
			return "", err
		}
	}

	// Boundary promotions: the composite's external services.
	cp, err := rt.LookupComposite(path)
	if err != nil {
		return "", err
	}
	if err := cp.Promote(SvcRequest, NameProtocol, SvcRequest); err != nil {
		return "", err
	}
	if err := cp.Promote(SvcReplica, NameProtocol, SvcReplica); err != nil {
		return "", err
	}

	// Start everything, integrity-check, open the boundary.
	for _, name := range names {
		if err := rt.Start(ctx, path+"/"+name); err != nil {
			return "", err
		}
	}
	if violations := rt.CheckIntegrity(); len(violations) > 0 {
		return "", fmt.Errorf("%w: %v", component.ErrIntegrity, violations)
	}
	if err := rt.Start(ctx, path); err != nil {
		return "", err
	}
	return path, nil
}
