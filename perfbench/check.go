package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gatewords/internal/report"
)

// checked is what the correctness gate keeps of one report.
type checked struct {
	Digest string // word list: bits and verified flag of each word, in order
	Gates  int    // cells of the input design, from the report's stats
	Eval   *report.Evaluation
	// Canon is the report re-encoded with runtime_seconds zeroed: two
	// reports of one source must agree on it byte for byte.
	Canon []byte
}

// checkReport parses a report document and applies the per-report gate: it
// must parse with report.Read and be complete, with no interruption, no
// recovered group failure and no budget degradation.
func checkReport(b []byte) (checked, error) {
	doc, err := report.Read(bytes.NewReader(b))
	if err != nil {
		return checked{}, fmt.Errorf("report does not parse: %w", err)
	}
	switch {
	case doc.Interrupted:
		return checked{}, fmt.Errorf("report of %s is interrupted", doc.Module)
	case len(doc.Failures) > 0:
		return checked{}, fmt.Errorf("report of %s has %d group failures", doc.Module, len(doc.Failures))
	case len(doc.Degradations) > 0:
		return checked{}, fmt.Errorf("report of %s has %d degradations", doc.Module, len(doc.Degradations))
	case len(doc.Words) == 0:
		return checked{}, fmt.Errorf("report of %s has no words", doc.Module)
	}
	var sb strings.Builder
	for _, w := range doc.Words {
		fmt.Fprintf(&sb, "%s|%t\n", strings.Join(w.Bits, ","), w.Verified)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	doc.Runtime = 0
	canon, err := json.Marshal(doc)
	if err != nil {
		return checked{}, err
	}
	return checked{
		Digest: hex.EncodeToString(sum[:]),
		Gates:  doc.Stats.Gates + doc.Stats.DFFs,
		Eval:   doc.Evaluation,
		Canon:  canon,
	}, nil
}

// check is the per-report gate the benchmark applies. Tests replace it to
// force a failing report.
var check = checkReport

// sameScores compares the Table-1 scores of two evaluations.
func sameScores(a, b *report.Evaluation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.ReferenceWords == b.ReferenceWords && a.FullyFound == b.FullyFound &&
		a.PartiallyFound == b.PartiallyFound && a.NotFound == b.NotFound &&
		a.FragmentationRate == b.FragmentationRate
}

// gate collects correctness failures. A mismatch makes the run incorrect and
// the command exit non-zero.
type gate struct {
	mismatches []string
	// first holds, per source, the first report seen; later reports of the
	// same source must match it.
	first map[string]checked
}

func newGate() *gate { return &gate{first: make(map[string]checked)} }

func (g *gate) fail(format string, args ...any) {
	g.mismatches = append(g.mismatches, fmt.Sprintf(format, args...))
}

// same checks c against the first report of source key (recording it if it
// is the first) and reports whether it matched.
func (g *gate) same(key string, c checked) bool {
	ref, ok := g.first[key]
	if !ok {
		g.first[key] = c
		return true
	}
	if !bytes.Equal(ref.Canon, c.Canon) {
		g.fail("%s: report differs from the first report of the same source", key)
		return false
	}
	return true
}
