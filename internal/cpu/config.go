// Package cpu is the SSMT timing core: an execution-driven cycle-level
// model of the Table 3 machine — 16-wide front end (3 branch predictions
// and 3 I-cache accesses per cycle), 512-entry out-of-order window, 16
// all-purpose functional units with full forwarding, the Table 3 memory
// hierarchy, and a 20-cycle minimum branch misprediction penalty — plus
// the paper's difficult-path microthread machinery: Path Cache promotion,
// the Microthread Builder (100-cycle build latency), microcontext spawning
// at fetch, Path_History aborts, and Prediction Cache delivery with early
// recovery on late predictions.
//
// The model is dependence-graph based: each dynamic instruction's fetch,
// rename, issue, completion, and retirement cycles are computed in fetch
// order against shared resource calendars (functional units, L1 ports),
// which is where primary/microthread contention arises. Fetch follows the
// correct path; misprediction penalties appear as redirect gaps at branch
// resolution (or earlier, when a late microthread prediction initiates an
// early recovery). Microthread instructions are scheduled through the same
// calendars and touch the same data caches, so overhead and prefetch
// side effects are both modelled. Two idealisations are documented in
// DESIGN.md: wrong-path instructions are not fetched (so wrong-path spawn
// attempts do not occur), and microthread instructions do not occupy
// out-of-order window slots.
package cpu

import (
	"dpbp/internal/bpred"
	"dpbp/internal/emu"
	"dpbp/internal/mem"
	"dpbp/internal/obs"
	"dpbp/internal/pathcache"
	"dpbp/internal/uthread"
	"dpbp/internal/vpred"
)

// Mode selects the machine configuration under test.
type Mode int

const (
	// ModeBaseline runs the Table 3 machine with no microthreading.
	ModeBaseline Mode = iota
	// ModePerfectAll predicts every branch perfectly (the Section 1
	// potential bound).
	ModePerfectAll
	// ModePerfectPromoted perfectly predicts the terminating branches of
	// currently promoted difficult paths, with no microthread overhead
	// (Figure 6's potential).
	ModePerfectPromoted
	// ModeMicrothread runs the full mechanism (Figure 7).
	ModeMicrothread
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModePerfectAll:
		return "perfect"
	case ModePerfectPromoted:
		return "potential"
	case ModeMicrothread:
		return "microthread"
	}
	return "unknown"
}

// Config parameterises a timing run. Zero values take Table 3 defaults
// via DefaultConfig.
type Config struct {
	Mode Mode
	// UsePredictions, in ModeMicrothread, delivers microthread
	// predictions to the front end. False gives Figure 7's
	// "overhead-only" configuration: microthreads run and compete for
	// resources (and prefetch), but their predictions are dropped.
	UsePredictions bool
	// Pruning enables the Vp_Inst/Ap_Inst optimisation.
	Pruning bool
	// AbortEnabled enables the Path_History abort mechanism.
	AbortEnabled bool

	// N is the path length (the paper evaluates 4, 10, 16; Figure 7
	// uses 10).
	N int
	// PathCache configures difficult-path identification.
	PathCache pathcache.Config
	// MicroRAMEntries bounds concurrently promoted paths (8K).
	MicroRAMEntries int
	// PCacheEntries sizes the Prediction Cache (128).
	PCacheEntries int
	// Microcontexts bounds concurrently active microthreads.
	Microcontexts int
	// BuildLatency is the Microthread Builder's fixed latency (100).
	BuildLatency int
	// SpawnOverhead is the MicroRAM read + injection delay between the
	// spawn fetch and the first microthread instruction being ready.
	SpawnOverhead int
	// InjectPerCycle bounds how many microthread instructions a
	// microcontext queue can feed into the machine per cycle
	// (Section 4.3.1's per-cycle packet formation). It spreads a
	// routine's resource usage over time, which is what lets aborts
	// reclaim the unissued remainder.
	InjectPerCycle int
	// PRBEntries sizes the Post-Retirement Buffer (512).
	PRBEntries int
	// MCBCapacity bounds routine extraction (64).
	MCBCapacity int

	// RebuildOnViolation controls whether a memory-dependence violation
	// marks the routine for reconstruction (Section 4.2.4). On by
	// default; disable for ablation.
	RebuildOnViolation bool

	// Throttle enables the spawn-throttling feedback loop the paper
	// lists as future work ("we are experimenting with feedback
	// mechanisms to throttle microthread usage"): the machine tracks,
	// over windows of retired branches, how many used microthread
	// predictions fixed a hardware misprediction versus how much
	// microthread instruction traffic was injected; when the fix rate
	// per unit of traffic falls below ThrottleMinYield the machine stops
	// spawning for the next window, re-probing periodically.
	Throttle bool
	// ThrottleWindow is the feedback window in retired branches.
	ThrottleWindow int
	// ThrottleMinYield is the minimum (fixes / spawns) ratio per window
	// that keeps spawning enabled.
	ThrottleMinYield float64

	// WrongPathSpawns relaxes the model's wrong-path idealisation: when
	// a branch mispredicts, the instructions the front end would have
	// fetched down the wrong path (followed statically through direct
	// control flow) also trigger spawn attempts. Wrong-path spawns
	// consume microcontexts and execution resources until the
	// Path_History monitor aborts them against the post-recovery
	// correct-path stream, mirroring the useless-spawn overhead the
	// paper's 67%/66% abort statistics describe. Off by default so the
	// headline experiments match the documented model.
	WrongPathSpawns bool

	// PrePromoted lists paths (by Path_Id) to promote unconditionally:
	// the profile-guided variant the paper sketches as future work for
	// better tracking of vast path populations. Routines are still
	// built at run time from the PRB; PrePromoted only bypasses the
	// Path Cache's difficulty training for these paths.
	PrePromoted []uint64

	// Predictor configures the baseline branch predictors.
	Predictor bpred.Config
	// BPred selects and sizes the conditional-direction backend (the
	// zero value canonicalizes to the gshare/PAs hybrid). The target
	// structures (BTB/RAS/target cache) stay in Predictor.
	BPred bpred.Spec
	// H2PSpawnGate, in ModeMicrothread or ModePerfectPromoted, gates
	// path promotion on an H2P filter (sized by BPred.H2P): a path
	// whose terminating branch the filter does not currently classify
	// hard-to-predict is rejected at promotion time. It focuses
	// microthread capacity on the branches concentrating mispredictions
	// (the Bullseye-style classifier driving spawning instead of a side
	// predictor).
	H2PSpawnGate bool
	// VPred configures the value/address predictors behind pruning.
	VPred vpred.Config
	// Mem configures the data-memory hierarchy.
	Mem mem.Config

	// Front end and core widths (Table 3).
	FetchWidth        int
	BranchesPerCycle  int
	ICacheLinesPerCyc int
	FrontLatency      int // fetch->rename pipeline depth
	WindowSize        int
	FUs               int
	L1Ports           int
	RetireWidth       int
	RedirectPenalty   int // pipeline refill gap after a redirect
	ICacheMissPenalty int

	// L1I geometry (64KB, 4-way in Table 3).
	L1IWords int
	L1IWays  int

	// MaxInsts bounds the run (primary-thread instructions; per primary
	// context in SMT runs).
	MaxInsts uint64

	// SMT configures multi-primary-context runs (see SMTConfig and
	// SMTMachine). The zero value is exactly today's single-thread
	// machine: RunContext ignores it, and an SMT run with one context and
	// all structures private is DeepEqual to the equivalent solo run.
	SMT SMTConfig

	// OnBuild, if set, is invoked with every routine the Microthread
	// Builder constructs (including rebuilds). It is an observation
	// hook for tooling; mutating the routine is not allowed.
	OnBuild func(*uthread.Routine)

	// OnRetire, if set, is invoked with every primary-thread
	// instruction's architectural record, after the timing model has
	// processed it, and the index of the primary context that retired
	// it (always 0 in single-thread runs). It is the observation point
	// for differential verification (internal/oracle): the record
	// describes exactly what the machine's internal emulator retired, so
	// a lockstep reference emulator per context can diff the streams.
	// The record is reused between calls and must not be retained;
	// mutating it is not allowed.
	OnRetire func(ctx int, rec *emu.Record)

	// Obs, if set, receives structured lifecycle events and occupancy
	// samples from the run (see internal/obs). A nil tracer disables
	// tracing with no hot-path cost beyond a pointer compare; the
	// simulation never reads the tracer, so enabling it cannot change
	// results.
	Obs *obs.Tracer
}

// DefaultConfig returns the Table 3 machine running the full microthread
// mechanism with the paper's Figure 7 parameters (n=10, T=.10, 8K Path
// Cache, training interval 32, 8K MicroRAM, 128-entry Prediction Cache,
// 100-cycle build latency).
func DefaultConfig() Config {
	return Config{
		Mode:               ModeMicrothread,
		UsePredictions:     true,
		Pruning:            true,
		AbortEnabled:       true,
		RebuildOnViolation: true,
		ThrottleWindow:     4096,
		ThrottleMinYield:   0.002,
		N:                  10,
		PathCache:          pathcache.DefaultConfig(),
		MicroRAMEntries:    8 << 10,
		PCacheEntries:      128,
		Microcontexts:      16,
		BuildLatency:       100,
		SpawnOverhead:      4,
		InjectPerCycle:     2,
		PRBEntries:         512,
		MCBCapacity:        64,
		Predictor:          bpred.DefaultConfig(),
		VPred:              vpred.DefaultConfig(),
		Mem:                mem.DefaultConfig(),
		FetchWidth:         16,
		BranchesPerCycle:   3,
		ICacheLinesPerCyc:  3,
		FrontLatency:       8,
		WindowSize:         512,
		FUs:                16,
		L1Ports:            4,
		RetireWidth:        16,
		RedirectPenalty:    10,
		ICacheMissPenalty:  6,
		L1IWords:           8 << 10,
		L1IWays:            4,
		MaxInsts:           1_000_000,
	}
}

// Canonical returns the configuration with every zero field replaced by
// its Table 3 default — exactly the configuration a run with c actually
// uses (Machine.Reset applies the same defaulting). Two Configs that
// canonicalize equal produce bit-identical runs, which is what makes
// Canonical the right input for content-addressed run caching.
func (c Config) Canonical() Config { return c.withDefaults() }

// withDefaults fills zero fields from DefaultConfig, preserving Mode and
// the boolean switches as given.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.N == 0 {
		c.N = d.N
	}
	if c.PathCache.Entries == 0 {
		c.PathCache = d.PathCache
	}
	if c.MicroRAMEntries == 0 {
		c.MicroRAMEntries = d.MicroRAMEntries
	}
	if c.PCacheEntries == 0 {
		c.PCacheEntries = d.PCacheEntries
	}
	if c.Microcontexts == 0 {
		c.Microcontexts = d.Microcontexts
	}
	if c.BuildLatency == 0 {
		c.BuildLatency = d.BuildLatency
	}
	if c.SpawnOverhead == 0 {
		c.SpawnOverhead = d.SpawnOverhead
	}
	if c.InjectPerCycle == 0 {
		c.InjectPerCycle = d.InjectPerCycle
	}
	if c.PRBEntries == 0 {
		c.PRBEntries = d.PRBEntries
	}
	if c.MCBCapacity == 0 {
		c.MCBCapacity = d.MCBCapacity
	}
	// Sub-configs canonicalize per-field (not whole-struct on a single
	// sentinel field): a partial bpred.Config or vpred.Config keeps its
	// set fields and defaults the rest, matching what the constructors
	// build.
	c.Predictor = c.Predictor.Canonical()
	c.BPred = c.BPred.Canonical()
	c.VPred = c.VPred.Canonical()
	if c.FetchWidth == 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.BranchesPerCycle == 0 {
		c.BranchesPerCycle = d.BranchesPerCycle
	}
	if c.ICacheLinesPerCyc == 0 {
		c.ICacheLinesPerCyc = d.ICacheLinesPerCyc
	}
	if c.FrontLatency == 0 {
		c.FrontLatency = d.FrontLatency
	}
	if c.WindowSize == 0 {
		c.WindowSize = d.WindowSize
	}
	if c.FUs == 0 {
		c.FUs = d.FUs
	}
	if c.L1Ports == 0 {
		c.L1Ports = d.L1Ports
	}
	if c.RetireWidth == 0 {
		c.RetireWidth = d.RetireWidth
	}
	if c.RedirectPenalty == 0 {
		c.RedirectPenalty = d.RedirectPenalty
	}
	if c.ICacheMissPenalty == 0 {
		c.ICacheMissPenalty = d.ICacheMissPenalty
	}
	if c.L1IWords == 0 {
		c.L1IWords = d.L1IWords
	}
	if c.L1IWays == 0 {
		c.L1IWays = d.L1IWays
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = d.MaxInsts
	}
	if c.ThrottleWindow == 0 {
		c.ThrottleWindow = d.ThrottleWindow
	}
	if c.ThrottleMinYield == 0 {
		c.ThrottleMinYield = d.ThrottleMinYield
	}
	// The memory system defaults its own zero fields in mem.New, so the
	// canonical form must apply the same filling or two configurations
	// that build identical hierarchies would key differently.
	c.Mem = c.Mem.Canonical()
	c.SMT = c.SMT.Canonical()
	return c
}
