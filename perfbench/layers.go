package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"gatewords/internal/group"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
	"gatewords/internal/reduce"
	"gatewords/internal/verilog"
)

// observerDoc is the public Observer's JSON rendering (stage wall times and
// work counters of one Identify call).
type observerDoc struct {
	Stages []struct {
		Stage string  `json:"stage"`
		MS    float64 `json:"ms"`
	} `json:"stages"`
	Counters []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	} `json:"counters"`
}

func (d observerDoc) stage(name string) float64 {
	for _, s := range d.Stages {
		if s.Stage == name {
			return s.MS
		}
	}
	return 0
}

func (d observerDoc) counter(name string) int64 {
	for _, c := range d.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// coreStages are the Figure-2 stages the Observer times inside Identify.
var coreStages = []string{"group", "match", "ctrlsig", "trial", "verify"}

// trialLog is the §2.5 trial loop of one Identify call, read from its
// decision trace.
type trialLog struct {
	trials   int
	verified int      // subgroups turned into words by a reduction
	distinct []string // distinct assignments, first-seen order
}

// parseTrialLog reads the trial and verified-word lines of a decision trace
// ("subgroup N: trial A=0, B=1 -> max class 3/4", "... infeasible",
// "subgroup N: verified 4-bit word via assignment A=0"). Lines of any other
// shape are ignored.
func parseTrialLog(lines []string) trialLog {
	var tl trialLog
	seen := make(map[string]bool)
	for _, l := range lines {
		if !strings.HasPrefix(l, "subgroup ") {
			continue
		}
		if i := strings.Index(l, ": trial "); i >= 0 {
			rest := l[i+len(": trial "):]
			var assign string
			if j := strings.LastIndex(rest, " -> max class "); j >= 0 {
				assign = rest[:j]
			} else if strings.HasSuffix(rest, " infeasible") {
				assign = strings.TrimSuffix(rest, " infeasible")
			} else {
				continue
			}
			tl.trials++
			if !seen[assign] {
				seen[assign] = true
				tl.distinct = append(tl.distinct, assign)
			}
			continue
		}
		if strings.Contains(l, ": verified ") && strings.Contains(l, " via assignment ") {
			tl.verified++
		}
	}
	return tl
}

// parseAssignment turns a trace assignment ("A=0, B=1") back into net IDs
// of nl.
func parseAssignment(nl *netlist.Netlist, s string) (map[netlist.NetID]logic.Value, error) {
	out := make(map[netlist.NetID]logic.Value)
	for _, part := range strings.Split(s, ", ") {
		eq := strings.LastIndex(part, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed assignment %q", s)
		}
		id, ok := nl.NetByName(part[:eq])
		if !ok {
			return nil, fmt.Errorf("assignment names unknown net %q", part[:eq])
		}
		switch part[eq+1:] {
		case "0":
			out[id] = logic.Zero
		case "1":
			out[id] = logic.One
		default:
			return nil, fmt.Errorf("assignment value %q is not 0 or 1", part[eq+1:])
		}
	}
	return out, nil
}

// libraryLayers computes the per-layer metrics of the library path from the
// traced operations: span means per operation, the Observer's stage split,
// the trial loop from the decision trace, and direct calls into the group
// and reduce layers on each distinct design. Times are means per traced
// operation, so the core stages and core.unattributed_ms add up to
// core.identify_ms.
func libraryLayers(tr *tracer, traces []*opTrace, vals map[string]float64) error {
	spans := tr.closed()
	n := float64(len(traces))
	if n == 0 {
		return fmt.Errorf("no traced operations")
	}
	var srcMB, allocMB, stageSum, proved, conflicts, reportLen float64
	var trials, distinct, verified int
	stageMS := make(map[string]float64)
	firstOf := make(map[string]*opTrace)
	var order []*opTrace
	for _, ot := range traces {
		var od observerDoc
		if err := json.Unmarshal(ot.observer, &od); err != nil {
			return fmt.Errorf("observer JSON: %w", err)
		}
		for _, s := range coreStages {
			stageMS[s] += od.stage(s)
			stageSum += od.stage(s)
		}
		conflicts += float64(od.counter("sat_conflicts"))
		tl := parseTrialLog(ot.trace)
		trials += tl.trials
		distinct += len(tl.distinct)
		verified += tl.verified
		srcMB += float64(len(ot.design.Src)) / 1e6
		allocMB += ot.allocMB
		proved += float64(ot.proved)
		reportLen += float64(ot.reportLen)
		if firstOf[ot.design.Name] == nil {
			firstOf[ot.design.Name] = ot
			order = append(order, ot)
		}
	}
	parseMS := mean(durations(spans, "verilog.parse"))
	identifyMS := mean(durations(spans, "core.identify"))
	vals["verilog.parse_ms"] = parseMS
	vals["verilog.parse_mb_s"] = srcMB / n / (parseMS / 1e3)
	vals["verilog.alloc_mb"] = allocMB / n
	vals["netlist.fingerprint_ms"] = mean(durations(spans, "netlist.fingerprint"))
	vals["core.identify_ms"] = identifyMS
	for _, s := range coreStages {
		vals["core."+s+"_ms"] = stageMS[s] / n
	}
	vals["core.unattributed_ms"] = identifyMS - stageSum/n
	vals["core.trials"] = float64(trials) / n
	vals["core.distinct_assignments"] = float64(distinct) / n
	vals["core.trial_repeat_share"] = 0
	vals["core.trial_yield"] = 0
	if trials > 0 {
		vals["core.trial_repeat_share"] = 1 - float64(distinct)/float64(trials)
		vals["core.trial_yield"] = float64(verified) / float64(trials)
	}
	vals["eqcheck.cones_proved"] = proved / n
	vals["eqcheck.sat_conflicts"] = conflicts / n
	vals["metrics.evaluate_ms"] = mean(durations(spans, "metrics.evaluate"))
	vals["report.encode_ms"] = mean(durations(spans, "report.encode"))
	vals["report.bytes"] = reportLen / n
	return directLayers(tr, order, vals)
}

// directLayers calls the group and reduce layers directly on each distinct
// traced design: group.Adjacent once, and reduce.ApplyObserved once per
// distinct assignment its trial loop tried.
func directLayers(tr *tracer, designs []*opTrace, vals map[string]float64) error {
	var groups, visits float64
	req := -1
	for _, ot := range designs {
		nl, err := verilog.ParseReader(ot.design.Name+".v", bytes.NewReader(ot.design.Src))
		if err != nil {
			return fmt.Errorf("%s: %w", ot.design.Name, err)
		}
		root := tr.begin("analysis", 0, req)
		sp := tr.begin("group.adjacent", root, req)
		gs := group.Adjacent(nl, group.Options{})
		tr.end(sp)
		groups += float64(len(gs))
		for _, a := range parseTrialLog(ot.trace).distinct {
			assign, err := parseAssignment(nl, a)
			if err != nil {
				return fmt.Errorf("%s: %w", ot.design.Name, err)
			}
			rec := obs.New()
			sp := tr.begin("reduce.apply", root, req)
			_, err = reduce.ApplyObserved(nl, assign, rec)
			tr.end(sp)
			if err != nil && !errors.Is(err, reduce.ErrConflict) {
				return fmt.Errorf("%s: reduce %s: %w", ot.design.Name, a, err)
			}
			visits += float64(rec.Count(obs.CtrReduceGateVisits))
		}
		tr.end(root)
		req--
	}
	spans := tr.closed()
	vals["group.adjacent_ms"] = mean(durations(spans, "group.adjacent"))
	vals["group.count"] = groups / float64(len(designs))
	vals["reduce.apply_us"] = 0
	vals["reduce.gate_visits"] = 0
	if applyMS := durations(spans, "reduce.apply"); len(applyMS) > 0 {
		vals["reduce.apply_us"] = median(applyMS) * 1e3
		vals["reduce.gate_visits"] = visits / float64(len(applyMS))
	}
	return nil
}
