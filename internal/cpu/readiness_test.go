package cpu

import (
	"context"
	"testing"

	"dpbp/internal/obs"
	"dpbp/internal/program"
	"dpbp/internal/uthread"
)

// TestSharedMicroRAMReadiness is the regression test for readiness under
// a shared MicroRAM: a routine may spawn only once the Microthread
// Builder has finished it, whichever context built it. Readiness used to
// live in the building context, so a co-runner hitting the spawn point
// saw no build in progress and spawned the routine early.
//
// Every build of a path happens while its context fetches the
// terminating branch at some cycle c; the routine is installed ready at
// that branch's retire cycle plus BuildLatency, which exceeds
// c+BuildLatency. So a spawn of the path at a fetch cycle below
// c+BuildLatency of its latest build used an unfinished routine.
func TestSharedMicroRAMReadiness(t *testing.T) {
	prog := benchProg(t, "gcc")
	tr := obs.NewTracer()
	tr.SetLimit(0)
	type build struct {
		at    int // events emitted before the build
		path  uint64
		ready uint64 // lower bound on the installed ready cycle
	}
	var builds []build
	cfg := smtConfig(2, FetchRoundRobin, func(c *Config) {
		c.MaxInsts = 400_000
		c.SMT.SharedMicroRAM = true
		c.Obs = tr
	})
	cfg.OnBuild = func(r *uthread.Routine) {
		builds = append(builds, build{len(tr.Events()), uint64(r.PathID), tr.Now() + uint64(cfg.BuildLatency)})
	}
	if _, err := RunSMT(context.Background(), []*program.Program{prog, prog}, cfg); err != nil {
		t.Fatal(err)
	}

	ready := map[uint64]uint64{}
	spawns, early := 0, 0
	for i, e := range tr.Events() {
		for len(builds) > 0 && builds[0].at <= i {
			ready[builds[0].path] = builds[0].ready
			builds = builds[1:]
		}
		if e.Kind != obs.KindSpawn {
			continue
		}
		spawns++
		if r, ok := ready[e.Path]; !ok || e.Cycle < r {
			early++
			if early <= 5 {
				t.Errorf("ctx %d spawned path %#x at cycle %d, before its build's ready bound %d (built: %v)",
					e.Ctx, e.Path, e.Cycle, r, ok)
			}
		}
	}
	if spawns == 0 {
		t.Fatal("no spawns: the run exercises nothing")
	}
	if early > 0 {
		t.Errorf("%d of %d spawns used a routine before it was ready", early, spawns)
	}
}
