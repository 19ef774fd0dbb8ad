package ftm

import (
	"fmt"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/host"
	"resilientft/internal/transport"
)

// Component names inside an FTM composite (Figure 6).
const (
	NameProtocol = "protocol"
	NameReplyLog = "replyLog"
	NameServer   = "server"
	NamePeer     = "peer"
	NameDetector = "detector"
	// The variable-feature slots carry the slot names of the generic
	// scheme: core.SlotBefore, core.SlotProceed, core.SlotAfter.
)

// bundleSizes models each component type's deployable size; bundle
// verification and linking at these sizes is the deployment cost of
// transition packages (cf. FraSCAti's OSGi bundles).
var bundleSizes = map[string]int{
	TypeProtocol:            96 * 1024,
	TypeServer:              64 * 1024,
	TypeReplyLog:            24 * 1024,
	TypePeer:                32 * 1024,
	TypeDetector:            40 * 1024,
	core.TypeNop:            8 * 1024,
	core.TypeComputeProceed: 16 * 1024,
	core.TypeNoProceed:      8 * 1024,
	core.TypeTRProceed:      56 * 1024,
	core.TypeAssertProceed:  40 * 1024,
	core.TypePBRCheckpoint:  48 * 1024,
	core.TypePBRApply:       40 * 1024,
	core.TypeLFRForward:     32 * 1024,
	core.TypeLFRReceive:     32 * 1024,
	core.TypeLFRNotify:      32 * 1024,
	core.TypeLFRAck:         32 * 1024,
	core.TypeTRCapture:      24 * 1024,
	core.TypeTRRestore:      24 * 1024,
	core.TypeRBProceed:      64 * 1024,
	core.TypeTMRProceed:     56 * 1024,
	core.TypeRecordProceed:  24 * 1024,
	core.TypeXPANotify:      32 * 1024,
	core.TypeXPAApply:       32 * 1024,
}

// BundleFor returns the sealed deployment bundle of a component type.
func BundleFor(typ string) component.Bundle {
	size, ok := bundleSizes[typ]
	if !ok {
		size = 16 * 1024
	}
	switch typ {
	case TypeProtocol, TypeServer, TypeReplyLog, TypePeer, TypeDetector:
		return component.NewBundle(typ, size)
	default:
		// Bricks link against the protocol's interfaces.
		return component.NewBundle(typ, size, TypeProtocol)
	}
}

// BrickTypes lists every variable-feature component type.
func BrickTypes() []string {
	return []string{
		core.TypeNop,
		core.TypeComputeProceed,
		core.TypeNoProceed,
		core.TypeTRProceed,
		core.TypeAssertProceed,
		core.TypePBRCheckpoint,
		core.TypePBRApply,
		core.TypeLFRForward,
		core.TypeLFRReceive,
		core.TypeLFRNotify,
		core.TypeLFRAck,
		core.TypeTRCapture,
		core.TypeTRRestore,
		core.TypeRBProceed,
		core.TypeTMRProceed,
		core.TypeRecordProceed,
		core.TypeXPANotify,
		core.TypeXPAApply,
	}
}

// propAs fetches a typed property, failing with a diagnosable error.
func propAs[T any](props map[string]any, name string) (T, error) {
	var zero T
	v, ok := props[name]
	if !ok {
		return zero, fmt.Errorf("ftm: missing property %q", name)
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("ftm: property %q is %T", name, v)
	}
	return t, nil
}

// RegisterAll installs factories for every FTM component type into a
// component registry — the "class space" a replica must resolve
// transition-package bundles against.
func RegisterAll(reg *component.Registry) error {
	factories := map[string]component.Factory{
		TypeProtocol: func(props map[string]any) (component.Content, error) {
			system, _ := props["system"].(string)
			return newProtocolContent(system), nil
		},
		TypeReplyLog: func(props map[string]any) (component.Content, error) {
			retention, ok := props["retention"].(int)
			if !ok {
				retention = 64
			}
			return newReplyLogContent(retention), nil
		},
		TypeServer: func(props map[string]any) (component.Content, error) {
			app, err := propAs[Application](props, "app")
			if err != nil {
				return nil, err
			}
			return newServerContent(app), nil
		},
		TypePeer: func(props map[string]any) (component.Content, error) {
			ep, err := propAs[transport.Endpoint](props, "endpoint")
			if err != nil {
				return nil, err
			}
			peer, _ := props["peer"].(string)
			system, _ := props["system"].(string)
			group, _ := props["group"].(string)
			return newPeerContent(ep, transport.Address(peer), system, group), nil
		},
		TypeDetector: func(props map[string]any) (component.Content, error) {
			h, err := propAs[*host.Host](props, "host")
			if err != nil {
				return nil, err
			}
			peer, _ := props["peer"].(string)
			interval, _ := props["interval"].(time.Duration)
			timeout, _ := props["timeout"].(time.Duration)
			return &detectorContent{h: h, peer: transport.Address(peer), interval: interval, timeout: timeout}, nil
		},
	}
	for typ, f := range factories {
		if err := reg.Register(typ, f); err != nil {
			return err
		}
	}
	for _, typ := range BrickTypes() {
		brickType := typ
		err := reg.Register(brickType, func(map[string]any) (component.Content, error) {
			return newBrickContent(brickType)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// NewRegistry returns a component registry with every FTM type installed.
func NewRegistry() *component.Registry {
	reg := component.NewRegistry()
	if err := RegisterAll(reg); err != nil {
		panic(err) // duplicate registration is a programming error
	}
	return reg
}

// infraDefinition returns the Definition template of a non-brick FTM
// component type.
func infraDefinition(typ string) (component.Definition, error) {
	def := component.Definition{Type: typ, Bundle: BundleFor(typ)}
	switch typ {
	case TypeProtocol:
		def.Name = NameProtocol
		def.Services = []string{SvcRequest, SvcReplica, SvcControl}
		def.References = []component.Ref{
			{Name: "before", Required: true},
			{Name: "proceed", Required: true},
			{Name: "after", Required: true},
			{Name: "log", Required: true},
			{Name: "peer"},
			{Name: "state"},
			{Name: "server"},
			{Name: "assert"},
		}
	case TypeReplyLog:
		def.Name = NameReplyLog
		def.Services = []string{SvcLog}
	case TypeServer:
		def.Name = NameServer
		def.Services = []string{SvcProcess, SvcState, SvcAssert, SvcAlternate, SvcRecord, SvcReplay}
	case TypePeer:
		def.Name = NamePeer
		def.Services = []string{SvcSend}
	case TypeDetector:
		def.Name = NameDetector
		def.Services = []string{"status"}
		def.References = []component.Ref{{Name: "protocol", Required: true}}
	default:
		return component.Definition{}, fmt.Errorf("ftm: unknown infrastructure type %q", typ)
	}
	return def, nil
}

// refTarget maps a reference name to (component name, service name)
// inside the composite — the static wiring plan of Figure 6.
var refTarget = map[string][2]string{
	"server":    {NameServer, SvcProcess},
	"state":     {NameServer, SvcState},
	"assert":    {NameServer, SvcAssert},
	"alternate": {NameServer, SvcAlternate},
	"record":    {NameServer, SvcRecord},
	"replay":    {NameServer, SvcReplay},
	"log":       {NameReplyLog, SvcLog},
	"peer":      {NamePeer, SvcSend},
	"before":    {core.SlotBefore, SvcSync},
	"proceed":   {core.SlotProceed, SvcExec},
	"after":     {core.SlotAfter, SvcSync},
	"protocol":  {NameProtocol, SvcControl},
}

// SlotService returns the service a pipeline slot exposes.
func SlotService(slot string) string {
	if slot == core.SlotProceed {
		return SvcExec
	}
	return SvcSync
}
