package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gatewords/internal/bench"
	"gatewords/internal/verilog"
)

// workload is one named input set. Batch workloads cycle over a pool of
// designs one at a time; daemon-mix drives an open-loop request schedule.
type workload struct {
	name     string
	profiles []string // bench profiles the designs are re-seeded from
	// perProfile is the number of re-seeded designs per profile in the
	// pool (batch workloads; daemon-mix sizes its pool from the schedule).
	perProfile int
	// verify turns on Options.VerifyReduction for every operation.
	verify bool
	// tailPct is the percentile reported as e2e_tail_ms, chosen so that a
	// run's expected sample count leaves at least ten samples beyond it. A
	// workload with under 20 operations cannot; itc-large reports p90, the
	// second-slowest of its 10–12 operations, because the slowest one
	// follows whichever operation a passing stall of the host hit.
	tailPct float64
	// daemon selects the wordidd path instead of the batch library path.
	daemon bool
	// warm lists the profiles of the untimed warm-up designs, one each, run
	// before the measured phase so that its first operations do not pay for
	// cold code paths (default: the workload's own profiles).
	warm []string
}

// setupRuns is how many times a workload's whole set-up runs. setup_s is
// the median of the runs, so one stalled run does not move it.
const setupRuns = 3

// midProfiles span more than a tenfold range of cold service time, from
// about 1 ms of Identify (b08a) to about 130 ms (b14a) on a 2-core host.
var midProfiles = []string{"b05a", "b07a", "b08a", "b11a", "b12a", "b13a", "b14a", "b15a"}

func lookupWorkload(name string, small bool) (workload, error) {
	switch name {
	case "itc-large":
		w := workload{name: name, profiles: []string{"b18a"}, perProfile: 2, verify: true, tailPct: 90, warm: []string{"b08a"}}
		if small {
			w.perProfile = 1
		}
		return w, nil
	case "daemon-mix":
		w := workload{name: name, profiles: midProfiles, tailPct: 95, daemon: true}
		if small {
			w.profiles = []string{"b05a", "b08a"}
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want itc-large or daemon-mix)", name)
}

// warmDesigns draws the warm-up designs, with seeds of their own so that they
// never collide with a pool design.
func (w workload) warmDesigns(runSeed int64) []design {
	profiles := w.warm
	if profiles == nil {
		profiles = w.profiles
	}
	ds := designSeeds(^runSeed, profiles, 1)
	for i := range ds {
		ds[i].Name = "warmup-" + ds[i].Name
	}
	return ds
}

// design is one generated input: the Verilog bytes the program receives.
type design struct {
	Name    string // profile and seed, e.g. b18a-s8674665223082153551
	Profile string
	Seed    int64
	Src     []byte
}

// designSeeds draws the profile seeds of a pool from the run seed: perProfile
// designs of each profile, interleaved (one of each profile, then the next of
// each), so that a pass over the pool spreads every profile over the pass and
// a passing disturbance on the host does not land on one profile alone.
func designSeeds(runSeed int64, profiles []string, perProfile int) []design {
	rng := rand.New(rand.NewSource(runSeed))
	var out []design
	for k := 0; k < perProfile; k++ {
		for _, p := range profiles {
			s := rng.Int63()
			out = append(out, design{Name: fmt.Sprintf("%s-s%d", p, s), Profile: p, Seed: s})
		}
	}
	return out
}

// generate builds one design's netlist from its re-seeded profile and writes
// its Verilog into dir.
func generate(d *design, dir string) error {
	p, ok := bench.ProfileByName(d.Profile)
	if !ok {
		return fmt.Errorf("unknown bench profile %q", d.Profile)
	}
	p.Seed = d.Seed
	g, err := p.Generate()
	if err != nil {
		return fmt.Errorf("generating %s: %w", d.Name, err)
	}
	var buf bytes.Buffer
	if err := verilog.Write(&buf, g.NL); err != nil {
		return fmt.Errorf("writing %s: %w", d.Name, err)
	}
	d.Src = buf.Bytes()
	return os.WriteFile(filepath.Join(dir, d.Name+".v"), d.Src, 0o644)
}

// timedSetup runs the whole set-up setupRuns times, each timed once, and
// returns setup_s: the median of the run times. Every run does the same
// work, so the last one's state is the one the measured phase uses.
func timedSetup(once func() error) (float64, error) {
	var secs []float64
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		if err := once(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}
