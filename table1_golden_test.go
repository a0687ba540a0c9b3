package gatewords

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gatewords/internal/bench"
)

// table1Row is one pinned row of testdata/table1.golden.json: a canonical
// digest of the identified word list plus the Table-1 metrics of the
// control-signal technique.
type table1Row struct {
	Name              string  `json:"name"`
	WordsDigest       string  `json:"words_digest"`
	Words             int     `json:"words"`
	FullyFoundPct     float64 `json:"fully_found_pct"`
	PartiallyFoundPct float64 `json:"partially_found_pct"`
	NotFoundPct       float64 `json:"not_found_pct"`
	FragmentationRate float64 `json:"fragmentation_rate"`
	ControlSignals    int     `json:"control_signals"`
}

// canonicalWords renders a word list independent of emission order: each
// word is its bit names sorted, its verified flag, and its sorted
// control-value assignment; the word lines are then sorted.
func canonicalWords(rep *Report) string {
	lines := make([]string, len(rep.Words))
	for i, w := range rep.Words {
		bits := append([]string(nil), w.Bits...)
		sort.Strings(bits)
		assign := make([]string, 0, len(w.Assignment))
		for n, v := range w.Assignment {
			assign = append(assign, fmt.Sprintf("%s=%t", n, v))
		}
		sort.Strings(assign)
		lines[i] = fmt.Sprintf("%s|%t|%s", strings.Join(bits, " "), w.Verified, strings.Join(assign, ","))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func table1GoldenRow(t *testing.T, name string, d *Design, workers int) table1Row {
	t.Helper()
	rep, err := Identify(d, Options{Workers: workers})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("%s: group failures: %v", name, rep.Failures)
	}
	ev := Evaluate(d, rep)
	sum := sha256.Sum256([]byte(canonicalWords(rep)))
	partial := 0.0
	if ev.ReferenceWords > 0 {
		partial = 100 * float64(ev.PartiallyFound) / float64(ev.ReferenceWords)
	}
	return table1Row{
		Name:              name,
		WordsDigest:       hex.EncodeToString(sum[:]),
		Words:             len(rep.Words),
		FullyFoundPct:     ev.FullyFoundPct,
		PartiallyFoundPct: partial,
		NotFoundPct:       ev.NotFoundPct,
		FragmentationRate: ev.FragmentationRate,
		ControlSignals:    len(rep.ControlSignalsUsed),
	}
}

// TestTable1Golden pins the paper's results exactly: for every Table-1
// analog, the Figure-1 circuit and the b08s/b13s scan profiles, the
// identified word list (by digest) and the Table-1 metrics must match
// testdata/table1.golden.json, at Workers 1 and at Workers 4. Regenerate
// with TABLE1_GOLDEN_UPDATE=1 and review the diff. Under -short only the
// rows below 10k gates are checked.
func TestTable1Golden(t *testing.T) {
	type design struct {
		name  string
		large bool
	}
	var designs []design
	for _, p := range bench.Profiles {
		designs = append(designs, design{p.Name, p.TargetGates > 10000})
	}
	designs = append(designs, design{name: "figure1"})
	for _, p := range bench.ExtensionProfiles {
		designs = append(designs, design{name: p.Name})
	}
	update := os.Getenv("TABLE1_GOLDEN_UPDATE") != ""
	if update && testing.Short() {
		t.Fatal("TABLE1_GOLDEN_UPDATE needs the large rows; run without -short")
	}

	golden := filepath.Join("testdata", "table1.golden.json")
	want := map[string]table1Row{}
	if !update {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (regenerate with TABLE1_GOLDEN_UPDATE=1)", err)
		}
		var rows []table1Row
		if err := json.Unmarshal(raw, &rows); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			want[r.Name] = r
		}
		if len(rows) != len(designs) {
			t.Errorf("golden has %d rows, want %d", len(rows), len(designs))
		}
	}

	var rows []table1Row
	for _, ds := range designs {
		if ds.large && testing.Short() {
			continue
		}
		var d *Design
		var err error
		if ds.name == "figure1" {
			d, err = Figure1()
		} else {
			d, err = GenerateBenchmark(ds.name)
		}
		if err != nil {
			t.Fatal(err)
		}
		seq := table1GoldenRow(t, ds.name, d, 1)
		if par := table1GoldenRow(t, ds.name, d, 4); par != seq {
			t.Errorf("%s: Workers 4 differs from Workers 1:\nseq %+v\npar %+v", ds.name, seq, par)
		}
		rows = append(rows, seq)
		if !update && want[ds.name] != seq {
			t.Errorf("%s drifted from golden:\ngot  %+v\nwant %+v\n(regenerate with TABLE1_GOLDEN_UPDATE=1 and review the diff)",
				ds.name, seq, want[ds.name])
		}
	}
	if update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
