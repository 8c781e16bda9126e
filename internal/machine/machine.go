// Package machine assembles the full manycore: cores, private caches,
// LLC/directory slices, the wired 2D mesh, the wireless channel, and
// the memory controllers, and runs the global cycle loop. It implements
// coherence.Env — the environment the protocol controllers act in —
// and collects the run's measurements into a Result.
package machine

import (
	"errors"
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/wireless"
	"repro/internal/xrand"
)

// Config describes one machine (Table III defaults via DefaultConfig).
type Config struct {
	Nodes    int // core count; MeshW×MeshH when both set, else squarest fit
	MeshW    int
	MeshH    int
	Protocol coherence.Protocol

	Core cpu.Config

	L1SizeBytes    int
	L1Ways         int
	L1Latency      uint64
	UpdateCountMax int // WiDir decay threshold

	LLCEntriesPerSlice int
	LLCLatency         uint64
	MaxPointers        int                 // Dir_iB i
	MaxWiredSharers    int                 // WiDir threshold
	DirScheme          coherence.DirScheme // Dir_iB (default) or Dir_iCV_r
	CoarseRegion       int                 // Dir_iCV_r region size (default 4)
	MAC                wireless.MAC        // BRS (default) or Token

	MemControllers     int
	MemLatency         uint64 // off-chip round trip (80)
	MemServiceInterval uint64 // MC bandwidth: cycles between accepts

	RetryDelay uint64 // NACK retry base
	Seed       uint64
	MaxCycles  uint64 // watchdog; 0 = default

	// Fault declares the deterministic fault-injection schedule
	// (internal/fault). The zero value injects nothing. When
	// Fault.Seed is zero the machine derives it from Seed, so two runs
	// with the same (Config, workload) replay the same faults.
	Fault fault.Config

	// TxnAgeLimit is the per-transaction age watchdog: a coherence
	// transaction older than this many cycles is reported as a typed
	// *coherence.ProtocolError (with the oldest transaction's state)
	// instead of running into the blunt MaxCycles watchdog. 0 = default.
	TxnAgeLimit uint64

	EnableChecker bool // value-coherence + SWMR invariant checking

	// Trace receives the run's structured observability events
	// (internal/obs) from every layer: protocol spans from the L1s and
	// homes, MAC events from the wireless channel, per-leg mesh events,
	// and ROB-stall episodes from the cores. nil (the default) disables
	// all emission — every site is behind a nil check, so the disabled
	// path costs one branch and zero allocations. Sinks are driven from
	// the single-threaded cycle loop and need no locking.
	Trace obs.Sink `json:"-"`
}

// DefaultConfig returns the paper's Table III machine with the given
// core count and protocol.
func DefaultConfig(nodes int, p coherence.Protocol) Config {
	c := Config{Nodes: nodes, Protocol: p}
	c.setDefaults()
	return c
}

// setDefaults gives every zero field its Table III value (the
// watchdogs and the seed their simulator defaults). It is the one copy
// of those values: DefaultConfig starts from it and fill runs it
// before validating, so a sparse and a spelled-out config resolve to
// the same machine. The mesh shape and the memory-controller clamp
// depend on Nodes and are resolved in fill.
func (c *Config) setDefaults() {
	c.Core.Fill()
	orDefault(&c.L1SizeBytes, 64<<10)
	orDefault(&c.L1Ways, 2)
	orDefault(&c.L1Latency, 2)
	orDefault(&c.UpdateCountMax, 3)
	orDefault(&c.LLCEntriesPerSlice, (512<<10)/addrspace.LineSize)
	orDefault(&c.LLCLatency, 12)
	orDefault(&c.MaxPointers, 3)
	orDefault(&c.MaxWiredSharers, c.MaxPointers)
	orDefault(&c.CoarseRegion, 4)
	orDefault(&c.MemControllers, 4)
	orDefault(&c.MemLatency, 80)
	orDefault(&c.MemServiceInterval, 4)
	orDefault(&c.RetryDelay, 16)
	orDefault(&c.Seed, 1)
	orDefault(&c.MaxCycles, 2_000_000_000)
	orDefault(&c.TxnAgeLimit, 2_000_000)
}

// orDefault sets *v to d when *v is zero.
func orDefault[T int | uint64](v *T, d T) {
	if *v == 0 {
		*v = d
	}
}

func (c *Config) fill() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("machine: node count %d must be positive", c.Nodes)
	}
	if c.MeshW == 0 || c.MeshH == 0 {
		c.MeshW, c.MeshH = meshDims(c.Nodes)
	}
	// Divide rather than multiply: a product can wrap around to Nodes
	// (2^62+1 columns by 4 rows "is" 4 nodes).
	if c.MeshW < 0 || c.MeshH < 0 || c.Nodes%c.MeshW != 0 || c.Nodes/c.MeshW != c.MeshH {
		return fmt.Errorf("machine: mesh %dx%d is not a positive grid of %d nodes", c.MeshW, c.MeshH, c.Nodes)
	}
	c.setDefaults()
	if k := c.Core; k.IssueWidth < 0 || k.ROBSize < 0 || k.LoadQueue < 0 || k.WriteBuffer < 0 {
		return fmt.Errorf("machine: core widths and queue sizes %d/%d/%d/%d must not be negative",
			k.IssueWidth, k.ROBSize, k.LoadQueue, k.WriteBuffer)
	}
	if err := (cache.Config{SizeBytes: c.L1SizeBytes, Ways: c.L1Ways}).Validate(); err != nil {
		return fmt.Errorf("machine: L1: %w", err)
	}
	if c.MaxWiredSharers < 1 || c.MaxWiredSharers > c.MaxPointers {
		return fmt.Errorf("machine: MaxPointers %d and MaxWiredSharers %d must be positive, with MaxWiredSharers at most MaxPointers", c.MaxPointers, c.MaxWiredSharers)
	}
	if c.UpdateCountMax < 0 {
		return fmt.Errorf("machine: UpdateCountMax %d must not be negative", c.UpdateCountMax)
	}
	if c.LLCEntriesPerSlice < 0 {
		return fmt.Errorf("machine: LLCEntriesPerSlice %d must not be negative", c.LLCEntriesPerSlice)
	}
	if c.Protocol != coherence.Baseline && c.Protocol != coherence.WiDir {
		return fmt.Errorf("machine: unknown protocol %d", c.Protocol)
	}
	if c.DirScheme > coherence.DirCV {
		return fmt.Errorf("machine: unknown directory scheme %d", c.DirScheme)
	}
	if c.MAC > wireless.MACToken {
		return fmt.Errorf("machine: unknown MAC %d", c.MAC)
	}
	// The coarse vector has one bit per region in a uint64.
	if r := c.CoarseRegion; c.DirScheme == coherence.DirCV && (r < 1 || (c.Nodes+r-1)/r > 64) {
		return fmt.Errorf("machine: Dir_iCV_r region %d must be positive and cover %d nodes in at most 64 regions", r, c.Nodes)
	}
	if c.MemControllers < 0 {
		return fmt.Errorf("machine: memory controller count %d must not be negative", c.MemControllers)
	}
	if c.MemControllers > c.Nodes {
		c.MemControllers = c.Nodes
	}
	if err := c.Fault.Validate(c.Nodes); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if len(c.Fault.Links) == 0 {
		c.Fault.Links = nil // JSON tells [] from null; the machine does not
	}
	return nil
}

// Normalized returns the configuration with every defaulted field
// filled in, exactly as NewSystem would resolve it. The experiment
// runner keys results by the normalized form, so DefaultConfig(64, p)
// and a sparse equivalent are the same run.
func (c Config) Normalized() (Config, error) {
	if err := c.fill(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// meshDims picks the squarest factorization of n.
func meshDims(n int) (w, h int) {
	w = 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			w = f
		}
	}
	return n / w, w
}

// System is one assembled machine ready to run.
type System struct {
	cfg    Config
	space  *addrspace.Space
	mesh   *mesh.Mesh
	wchan  *wireless.Channel[coherence.Msg]
	events engine.Queue
	cycle  uint64

	l1s   []*coherence.L1Ctrl
	homes []*coherence.HomeCtrl
	cores []*cpu.Core

	memory      *coherence.MemoryImage
	mcNodes     []int
	mcFree      []uint64
	memAccesses stats.Counter

	checker  *Checker
	injector *fault.Injector

	// protoErr latches the first protocol error any controller reports;
	// the cycle loop checks it once per iteration and fails the run.
	protoErr *coherence.ProtocolError

	running int // cores not yet finished

	// msgFree recycles wired messages (see coherence.Env for who owns a
	// message when) and memFree the memory controllers' response
	// runners. Both grow on demand.
	msgFree pool.Free[coherence.Msg]
	memFree pool.Free[memResponse]

	// poisonMsgs, set only by this package's tests, scribbles every
	// freed message (poisonType, poisonLine) and never reuses it, so a
	// read after free sees the poison and a second free panics.
	poisonMsgs bool

	// noFastForward, set only by this package's tests, makes Run and
	// Step visit every cycle instead of jumping to the next horizon.
	// Cores still sleep and drain (cpu.Core.NeedsTick). The result is
	// byte-identical either way; ff_test.go proves it.
	noFastForward bool
}

// The scribble of a freed message under System.poisonMsgs: no handler
// accepts the type, and no line lives at the address.
const (
	poisonType = coherence.MsgType(0xff)
	poisonLine = addrspace.Line(0xdead_dead_dead)
)

// NewSystem builds a machine. Sources supplies each core's instruction
// stream (len must equal cfg.Nodes).
func NewSystem(cfg Config, sources []cpu.InstrSource) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Nodes {
		return nil, fmt.Errorf("machine: %d instruction sources for %d nodes", len(sources), cfg.Nodes)
	}
	s := &System{
		cfg:    cfg,
		space:  addrspace.NewSpace(cfg.Nodes, cfg.MemControllers),
		memory: coherence.NewMemoryImage(),
	}
	s.mesh = mesh.New(cfg.MeshW, cfg.MeshH, s.deliverWired)
	s.mesh.Trace = cfg.Trace
	s.wchan = wireless.NewChannel[coherence.Msg](xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15))
	s.wchan.Trace = cfg.Trace
	s.wchan.Mac = cfg.MAC
	s.wchan.Nodes = cfg.Nodes
	s.wchan.SetBroadcast(s.deliverWireless)

	fcfg := cfg.Fault
	if fcfg.Seed == 0 {
		// Derive the fault schedule from the machine seed so that the
		// pair (Config, workload) fully keys a faulty run; an explicit
		// Fault.Seed replays one schedule across machine seeds.
		fcfg.Seed = cfg.Seed ^ 0x6661756c74 // "fault"
	}
	if inj := fault.New(fcfg); inj != nil {
		s.injector = inj
		if fcfg.WirelessBER > 0 {
			s.wchan.FaultCorrupt = func(wireless.Message[coherence.Msg]) bool { return inj.CorruptTx() }
			s.wchan.OnTxFault = func(now uint64, msg wireless.Message[coherence.Msg], exhausted bool) {
				// Tell the home so it can count consecutive wireless
				// faults on the line and demote W->S past the threshold.
				s.homes[s.space.HomeOf(msg.Line)].NoteWirelessFault(now, msg.Line)
			}
		}
		if fcfg.LinkStallPct > 0 || fcfg.LinkDropPct > 0 {
			s.mesh.FaultDelay = inj.LinkDelay
		}
	}

	l1cfg := coherence.L1Config{
		Cache:          cache.Config{SizeBytes: cfg.L1SizeBytes, Ways: cfg.L1Ways},
		Protocol:       cfg.Protocol,
		HitLatency:     cfg.L1Latency,
		RetryDelay:     cfg.RetryDelay,
		UpdateCountMax: cfg.UpdateCountMax,
		Trace:          cfg.Trace,
	}
	homecfg := coherence.HomeConfig{
		Protocol:        cfg.Protocol,
		Scheme:          cfg.DirScheme,
		MaxPointers:     cfg.MaxPointers,
		MaxWiredSharers: cfg.MaxWiredSharers,
		CoarseRegion:    cfg.CoarseRegion,
		Entries:         cfg.LLCEntriesPerSlice,
		LLCLatency:      cfg.LLCLatency,
		Trace:           cfg.Trace,
	}
	if s.injector != nil && s.injector.Config().DirDelayPct > 0 {
		homecfg.FaultDirDelay = s.injector.DirDelay
	}
	corecfg := cfg.Core
	corecfg.Trace = cfg.Trace
	for i := 0; i < cfg.Nodes; i++ {
		l1 := coherence.NewL1(i, l1cfg, s)
		home := coherence.NewHome(i, homecfg, s)
		home.Memory = s.memory
		s.l1s = append(s.l1s, l1)
		s.homes = append(s.homes, home)
		s.cores = append(s.cores, cpu.New(i, corecfg, sources[i], l1))
	}
	s.running = cfg.Nodes

	// Memory controllers sit spread across the mesh edge.
	for i := 0; i < cfg.MemControllers; i++ {
		s.mcNodes = append(s.mcNodes, i*cfg.Nodes/cfg.MemControllers)
	}
	s.mcFree = make([]uint64, cfg.MemControllers)

	if cfg.EnableChecker {
		s.checker = NewChecker(s)
		for _, l1 := range s.l1s {
			l1.OnSerializedWrite = s.checker.SerializedWrite
			l1.OnObservedRead = s.checker.ObservedRead
		}
	}
	return s, nil
}

// --- coherence.Env implementation ---

// Now returns the current cycle.
func (s *System) Now() uint64 { return s.cycle }

// SendWired copies a coherence message into one from the free list and
// injects it into the mesh; the machine owns it until delivery.
func (s *System) SendWired(src, dst int, port coherence.PortKind, msg coherence.Msg) {
	if port == coherence.PortMC {
		// Messages to a memory controller are addressed by MC index.
		dst = s.mcNodes[s.space.MCOf(msg.Line)]
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Emit(obs.Event{Cycle: s.cycle, Kind: obs.EvMsgSend,
			Node: int32(src), Other: int32(dst), Line: msg.Line,
			A: uint64(msg.Type), B: msg.ReqID})
	}
	m := s.msgFree.Get()
	*m = msg
	m.Port = port
	s.mesh.Send(s.cycle, mesh.Packet{
		Src: src, Dst: dst,
		Flits:   mesh.FlitsFor(m.Bytes()),
		Payload: m,
	})
}

// FreeMsg returns a delivered message to the free list.
func (s *System) FreeMsg(m *coherence.Msg) {
	if s.poisonMsgs {
		if m.Type == poisonType {
			panic(fmt.Sprintf("machine: message freed twice (%+v)", *m))
		}
		m.Type, m.Line = poisonType, poisonLine
		return
	}
	s.msgFree.Put(m)
}

// TransmitWireless queues m as a broadcast on the data channel.
func (s *System) TransmitWireless(m coherence.Msg, privileged bool, cb coherence.TxCallback) uint64 {
	return s.wchan.Transmit(wireless.Message[coherence.Msg]{Sender: m.Src, Line: m.Line, Payload: m, Privileged: privileged}, cb)
}

// CancelWireless withdraws a queued broadcast.
func (s *System) CancelWireless(tx uint64) bool { return s.wchan.Cancel(tx) }

// WirelessActive reports an in-flight transmission for the line.
func (s *System) WirelessActive(l addrspace.Line) bool { return s.wchan.ActiveOn(l) }

// Jam starts protecting a line on the data channel.
func (s *System) Jam(l addrspace.Line, owner int) { s.wchan.Jam(l, owner) }

// Unjam releases the protection.
func (s *System) Unjam(l addrspace.Line, owner int) { s.wchan.Unjam(l, owner) }

// RaiseTone adds a tone-channel hold.
func (s *System) RaiseTone() {
	s.wchan.RaiseTone()
	if s.cfg.Trace != nil {
		s.cfg.Trace.Emit(obs.Event{Cycle: s.cycle, Kind: obs.EvToneRaise,
			Node: obs.NoNode, Other: obs.NoNode, Line: obs.NoLine,
			A: uint64(s.wchan.ToneHolds())})
	}
}

// LowerTone releases a tone-channel hold.
func (s *System) LowerTone() {
	s.wchan.LowerTone()
	if s.cfg.Trace != nil {
		s.cfg.Trace.Emit(obs.Event{Cycle: s.cycle, Kind: obs.EvToneLower,
			Node: obs.NoNode, Other: obs.NoNode, Line: obs.NoLine,
			A: uint64(s.wchan.ToneHolds())})
	}
}

// WaitToneSilent registers a ToneAck completion runner.
func (s *System) WaitToneSilent(r engine.Runner) { s.wchan.WaitToneSilent(r) }

// AfterRunner schedules a pooled runner at Now()+delay.
func (s *System) AfterRunner(delay uint64, r engine.Runner) { s.events.At(s.cycle+delay, r) }

// HomeOf maps a line to its home slice.
func (s *System) HomeOf(l addrspace.Line) int { return s.space.HomeOf(l) }

// MCOf maps a line to its memory controller index.
func (s *System) MCOf(l addrspace.Line) int { return s.space.MCOf(l) }

// Nodes returns the machine's node count.
func (s *System) Nodes() int { return s.cfg.Nodes }

// ReportProtocolError latches the first protocol error a controller
// reports; Run fails with it at the top of the next cycle.
func (s *System) ReportProtocolError(e *coherence.ProtocolError) {
	if s.protoErr == nil {
		s.protoErr = e
	}
}

// --- delivery plumbing ---

func (s *System) deliverWired(now uint64, pkt mesh.Packet) {
	m := pkt.Payload.(*coherence.Msg)
	if s.cfg.Trace != nil {
		s.cfg.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvMsgRecv,
			Node: int32(pkt.Dst), Other: int32(pkt.Src), Line: m.Line,
			A: uint64(m.Type), B: m.ReqID})
	}
	kept := false
	switch m.Port {
	case coherence.PortL1:
		kept = s.l1s[pkt.Dst].HandleWired(now, m)
	case coherence.PortHome:
		kept = s.homes[pkt.Dst].HandleWired(now, m)
	case coherence.PortMC:
		s.handleMC(now, m)
	}
	if !kept {
		s.FreeMsg(m)
	}
}

func (s *System) deliverWireless(now uint64, msg wireless.Message[coherence.Msg]) {
	for i := range s.l1s {
		s.l1s[i].HandleWireless(now, &msg.Payload)
	}
	for i := range s.homes {
		s.homes[i].HandleWireless(now, &msg.Payload)
	}
}

// handleMC models the off-chip memory: a service queue per controller
// with the Table III round-trip latency.
func (s *System) handleMC(now uint64, m *coherence.Msg) {
	mc := s.space.MCOf(m.Line)
	s.memAccesses.Inc()
	start := s.mcFree[mc]
	if start < now {
		start = now
	}
	s.mcFree[mc] = start + s.cfg.MemServiceInterval
	switch m.Type {
	case coherence.MsgMemRead:
		r := s.memFree.Get()
		r.s, r.line, r.dst, r.mc = s, m.Line, m.Requester, mc
		s.events.At(start+s.cfg.MemLatency, r)
	case coherence.MsgMemWrite:
		// Data already committed to the MemoryImage by the home (so a
		// racing read can never see stale contents); the message models
		// timing and bandwidth only.
	default:
		panic(fmt.Sprintf("machine: MC port received non-memory message %v", m.Type))
	}
}

// memResponse is the pooled event that answers a MemRead once the
// memory latency has passed; the line is read at that time.
type memResponse struct {
	s       *System
	line    addrspace.Line
	dst, mc int
}

// Run implements engine.Runner.
func (r *memResponse) Run(now uint64) {
	s := r.s
	s.memFree.Put(r)
	s.SendWired(s.mcNodes[r.mc], r.dst, coherence.PortHome, coherence.Msg{
		Type: coherence.MsgMemData, Line: r.line, HasData: true,
		Words: s.memory.ReadLine(r.line),
	})
}

// --- run loop ---

// Result summarizes one run.
type Result struct {
	Protocol coherence.Protocol
	Nodes    int
	Cycles   uint64

	Retired        uint64
	MemStallCycles uint64 // summed over cores

	Loads, Stores, RMWs     uint64
	LoadROBLat, StoreROBLat uint64

	L1LoadMisses, L1StoreMisses uint64
	L1Hits                      uint64
	L1Accesses                  uint64

	WirelessWrites    uint64
	UpdatesReceived   uint64
	SelfInvalidations uint64
	NACKs             uint64

	SToW, WToS, WirInvs uint64
	BroadcastInvs       uint64
	Invalidations       uint64

	SharersPerUpdate     *stats.Histogram // Fig. 5
	HopsPerLeg           *stats.Histogram // Table V
	MissLatency          *stats.Histogram // per-miss completion latency
	MeanSharersPerUpdate float64

	WirelessAttempts   uint64
	WirelessCollisions uint64
	CollisionProb      float64

	// Fault-injection outcomes (zero when no faults are configured).
	WirelessCorrupted  uint64 // transmissions lost to injected faults
	WirelessTxFailures uint64 // senders that exhausted their retries
	FaultDemotions     uint64 // W lines demoted to wired S after faults
	LinkFaultDelays    uint64 // packets stalled or dropped on the mesh
	DirFaultDelays     uint64 // directory requests served late

	Energy      *stats.Breakdown // Fig. 9
	EnergyPJ    float64
	MemAccesses uint64
	MeshPackets uint64

	PerCore []cpu.Stats
}

// MPKI returns L1 misses per kilo-instruction.
func (r *Result) MPKI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.L1LoadMisses+r.L1StoreMisses) * 1000 / float64(r.Retired)
}

// ReadMPKI returns the load-miss component of MPKI (Fig. 6 split).
func (r *Result) ReadMPKI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.L1LoadMisses) * 1000 / float64(r.Retired)
}

// WriteMPKI returns the store-miss component of MPKI (Fig. 6 split).
func (r *Result) WriteMPKI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.L1StoreMisses) * 1000 / float64(r.Retired)
}

// ErrWatchdog is wrapped into the error Run returns when a simulation
// exceeds Config.MaxCycles — a protocol deadlock or runaway workload.
// Callers (including the exp package's parallel aggregate errors) can
// detect it with errors.Is.
//
//lint:deterministic sentinel error value, never reassigned
var ErrWatchdog = errors.New("machine: watchdog timeout")

// never is the horizon sentinel for "no scheduled work".
const never = ^uint64(0)

// tick runs one cycle of component work in the canonical order —
// mesh, wireless, events, cores — and reports whether anything
// happened: packets delivered, events executed, or cores ticked.
// Cores sleep through cycles where they can make no progress
// (cpu.Core.NeedsTick); their per-cycle statistics are settled
// analytically when they wake.
func (s *System) tick() bool {
	delivered := s.mesh.Tick(s.cycle)
	if !s.wchan.Idle() {
		s.wchan.Tick(s.cycle)
	}
	ran := s.events.RunDue(s.cycle)
	active := 0
	for _, c := range s.cores {
		if c.Done() || !c.NeedsTick(s.cycle) {
			continue
		}
		c.Tick(s.cycle)
		active++
		if c.Done() {
			s.running--
		}
	}
	return delivered > 0 || ran > 0 || active > 0
}

// horizon returns the earliest future cycle at which any component is
// scheduled to make progress: the next event, packet arrival, wireless
// wake, or core wake-up. It is capped by the watchdog cadences (the
// %1024 transaction-age check, the %512 checker sweep, MaxCycles+1) so
// a fast-forwarded run performs those checks on exactly the same
// cycles a serial run does — error reports stay byte-identical.
func (s *System) horizon() uint64 {
	h := s.cycle + 1024 - s.cycle%1024 // txn-age watchdog cadence
	if s.checker != nil {
		if c := s.cycle + 512 - s.cycle%512; c < h {
			h = c
		}
	}
	if w := s.cfg.MaxCycles + 1; w > s.cycle && w < h {
		h = w
	}
	if at, ok := s.events.Next(); ok && at < h {
		h = at
	}
	if at := s.mesh.NextEvent(s.cycle); at < h {
		h = at
	}
	if at := s.wchan.NextWake(s.cycle); at < h {
		h = at
	}
	for _, c := range s.cores {
		if at := c.NextWake(); at < h {
			h = at
		}
	}
	return h
}

// fastForward jumps the cycle counter to just before the horizon
// (bounded by bound, exclusive), settling the wireless channel's
// per-cycle statistics for the skipped stretch. The caller has just
// run a fully quiescent cycle, so nothing observable happens in
// between: the next loop iteration lands exactly on the horizon.
func (s *System) fastForward(bound uint64) {
	h := s.horizon()
	if h > bound {
		h = bound
	}
	if h <= s.cycle+1 {
		return
	}
	if !s.wchan.Idle() {
		s.wchan.FastForward(s.cycle, h)
	}
	s.cycle = h - 1
}

// Run executes the machine until every core finishes (or the watchdog
// trips, which reports a protocol deadlock or runaway workload).
func (s *System) Run() (*Result, error) {
	ff := !s.noFastForward
	for s.running > 0 {
		s.cycle++
		if s.protoErr != nil {
			return nil, fmt.Errorf("machine: run failed: %w\n%s", s.protoErr, s.Diagnose())
		}
		if s.cycle > s.cfg.MaxCycles {
			return nil, fmt.Errorf("%w at cycle %d with %d cores unfinished\n%s", ErrWatchdog, s.cycle, s.running, s.Diagnose())
		}
		if s.cycle%1024 == 0 {
			s.checkTxnAges()
		}
		busy := s.tick()
		if s.checker != nil && s.cycle%512 == 0 {
			if err := s.checker.CheckStructural(); err != nil {
				return nil, err
			}
		}
		if !busy && ff && s.protoErr == nil {
			s.fastForward(never)
		}
	}
	if s.protoErr != nil {
		return nil, fmt.Errorf("machine: run failed: %w\n%s", s.protoErr, s.Diagnose())
	}
	if s.checker != nil {
		if err := s.checker.CheckStructural(); err != nil {
			return nil, err
		}
		if err := s.checker.Err(); err != nil {
			return nil, err
		}
	}
	return s.result(), nil
}

// checkTxnAges is the per-transaction age watchdog: it finds the
// oldest in-flight coherence transaction across every directory and L1
// and latches a ProtocolError when it has been stuck longer than
// Config.TxnAgeLimit. Unlike the MaxCycles watchdog it names the
// culprit line and its full transaction state.
func (s *System) checkTxnAges() {
	// The common case, nothing stuck, is decided from start cycles
	// alone; only a report builds the TxnInfo.
	oldest := never
	for _, h := range s.homes {
		if st, ok := h.OldestStart(); ok && st < oldest {
			oldest = st
		}
	}
	for _, l1 := range s.l1s {
		if st, ok := l1.OldestStart(); ok && st < oldest {
			oldest = st
		}
	}
	if oldest == never || s.cycle-oldest <= s.cfg.TxnAgeLimit {
		return
	}
	info, _ := s.oldestTxn()
	s.ReportProtocolError(&coherence.ProtocolError{
		Cycle: s.cycle,
		Node:  info.Node,
		Ctrl:  info.Ctrl,
		Line:  info.Line,
		Reason: fmt.Sprintf("transaction stuck for %d cycles (limit %d)",
			info.Age(s.cycle), s.cfg.TxnAgeLimit),
		Dump: info.String(),
	})
}

// oldestTxn returns the oldest in-flight coherence transaction across
// all directories and L1s, if any.
func (s *System) oldestTxn() (coherence.TxnInfo, bool) {
	var best coherence.TxnInfo
	found := false
	for _, h := range s.homes {
		if info, ok := h.OldestTxn(); ok && (!found || info.Older(best)) {
			best, found = info, true
		}
	}
	for _, l1 := range s.l1s {
		if info, ok := l1.OldestPending(); ok && (!found || info.Older(best)) {
			best, found = info, true
		}
	}
	return best, found
}

// Diagnose renders a snapshot of stuck state for watchdog reports.
func (s *System) Diagnose() string {
	out := fmt.Sprintf("mesh pending=%d, wireless idle=%v tone=%d, events=%d\n",
		s.mesh.Pending(), s.wchan.Idle(), s.wchan.ToneHolds(), s.events.Len())
	if info, ok := s.oldestTxn(); ok {
		out += fmt.Sprintf("oldest txn: %s age=%d\n", info.String(), info.Age(s.cycle))
	}
	for i, c := range s.cores {
		if c.Done() {
			continue
		}
		c.CatchUp(s.cycle) // settle a sleeping core's stats before dumping
		out += fmt.Sprintf("core %d: %s\n", i, c.Describe())
		if s.l1s[i].HasPending() {
			out += fmt.Sprintf("  l1 %d: %s\n", i, s.l1s[i].Describe())
		}
	}
	for i, h := range s.homes {
		if h.HasBusy() {
			out += fmt.Sprintf("home %d: %s\n", i, h.Describe())
		}
	}
	return out
}

// Cycle returns the current cycle (for tests driving the loop manually).
func (s *System) Cycle() uint64 { return s.cycle }

// Step advances the machine n cycles regardless of completion (tests).
// Quiescent stretches inside the window fast-forward like Run does;
// the horizon is recomputed fresh each call because tests drive
// component state directly between Steps.
func (s *System) Step(n uint64) {
	ff := !s.noFastForward
	target := s.cycle + n
	for s.cycle < target {
		s.cycle++
		busy := s.tick()
		if !busy && ff && s.protoErr == nil {
			s.fastForward(target + 1)
		}
	}
}

// L1 exposes a node's private cache controller (tests, checkers).
func (s *System) L1(i int) *coherence.L1Ctrl { return s.l1s[i] }

// Home exposes a node's directory controller (tests, checkers).
func (s *System) Home(i int) *coherence.HomeCtrl { return s.homes[i] }

// Core exposes a node's core (tests).
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// Mesh exposes the wired NoC.
func (s *System) Mesh() *mesh.Mesh { return s.mesh }

// Wireless exposes the wireless channel (tests, stats).
func (s *System) Wireless() *wireless.Channel[coherence.Msg] { return s.wchan }

// Injector exposes the fault injector (nil when no faults are
// configured).
func (s *System) Injector() *fault.Injector { return s.injector }

// Memory exposes the simulated off-chip memory image (tests,
// determinism fingerprinting via MemoryImage.Dump).
func (s *System) Memory() *coherence.MemoryImage { return s.memory }

// Config returns the (filled) configuration.
func (s *System) Config() Config { return s.cfg }

func (s *System) result() *Result {
	r := &Result{
		Protocol:         s.cfg.Protocol,
		Nodes:            s.cfg.Nodes,
		Cycles:           s.cycle,
		SharersPerUpdate: stats.NewHistogram(0, 6, 11, 26, 50),
		MissLatency:      stats.NewHistogram(coherence.MissLatencyBins...),
		HopsPerLeg:       s.mesh.HopsPerLeg,
		MeshPackets:      s.mesh.Packets.Value(),
		MemAccesses:      s.memAccesses.Value(),
	}
	var updSum, updCount uint64
	var llcAccesses, dirReqs uint64
	for i := range s.cores {
		cs := s.cores[i].Stats
		r.PerCore = append(r.PerCore, cs)
		r.Retired += cs.Retired
		r.MemStallCycles += cs.MemStallCycles
		r.Loads += cs.Loads
		r.Stores += cs.Stores
		r.RMWs += cs.RMWs
		r.LoadROBLat += cs.LoadROBLatency
		r.StoreROBLat += cs.StoreROBLatency

		ls := &s.l1s[i].Stats
		r.L1LoadMisses += ls.LoadMisses.Value()
		r.L1StoreMisses += ls.StoreMisses.Value()
		r.L1Hits += ls.LoadHits.Value() + ls.StoreHits.Value()
		r.L1Accesses += ls.L1Accesses.Value()
		r.WirelessWrites += ls.WirelessWrites.Value()
		r.UpdatesReceived += ls.UpdatesReceived.Value()
		r.SelfInvalidations += ls.SelfInvalidations.Value()
		r.NACKs += ls.NACKs.Value()
		r.MissLatency.Merge(ls.MissLatency)

		hs := &s.homes[i].Stats
		r.SToW += hs.SToW.Value()
		r.WToS += hs.WToS.Value()
		r.FaultDemotions += hs.FaultDemotions.Value()
		r.WirInvs += hs.WirInvs.Value()
		r.BroadcastInvs += hs.BroadcastInvs.Value()
		r.Invalidations += hs.Invalidations.Value()
		r.SharersPerUpdate.Merge(hs.SharersAtUpd)
		updSum += hs.UpdateSharerSum.Value()
		updCount += hs.SharersAtUpd.Total()
		llcAccesses += hs.LLCAccesses.Value()
		dirReqs += hs.GetS.Value() + hs.GetX.Value()
	}
	if updCount > 0 {
		r.MeanSharersPerUpdate = float64(updSum) / float64(updCount)
	}
	r.WirelessAttempts = s.wchan.Attempts.Value()
	r.WirelessCollisions = s.wchan.Collisions.Value()
	r.CollisionProb = s.wchan.CollisionProbability()
	r.WirelessCorrupted = s.wchan.Corrupted.Value()
	r.WirelessTxFailures = s.wchan.TxFailures.Value()
	if s.injector != nil {
		fs := &s.injector.Stats
		r.LinkFaultDelays = fs.LinkStalls.Value() + fs.LinkDrops.Value()
		r.DirFaultDelays = fs.DirDelays.Value()
	}

	r.Energy = energy.Compute(energy.Counts{
		Nodes:        s.cfg.Nodes,
		Cycles:       s.cycle,
		Retired:      r.Retired,
		L1Accesses:   r.L1Accesses,
		LLCAccesses:  llcAccesses,
		DirRequests:  dirReqs,
		FlitHops:     s.mesh.FlitHops.Value(),
		RouterXings:  s.mesh.RouterXings.Value(),
		MemAccesses:  s.memAccesses.Value(),
		WirelessBusy: s.wchan.BusyCycles.Value(),
		WirelessTxns: s.wchan.Successes.Value(),
		WirelessOn:   s.cfg.Protocol == coherence.WiDir,
	}, energy.Default())
	r.EnergyPJ = r.Energy.Total()
	return r
}
