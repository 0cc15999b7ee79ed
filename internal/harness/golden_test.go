package harness

import (
	"bytes"
	"context"
	"flag"
	"os"
	"strings"
	"testing"
)

// results_reference.txt at the repository root is the paper's output as
// `srvbench` prints it with default flags: Table I, the §II limit study,
// Figs 6-13, the cost-model and region reports and the structural sweep.
// TestResultsReference pins it byte for byte, so FlexVec, the limit study,
// the sweep and the power figures cannot drift silently. After an
// intentional change to the simulated output, regenerate it with
// `go test ./internal/harness -run TestResultsReference -update-golden`.

var updateGolden = flag.Bool("update-golden", false, "rewrite results_reference.txt at the repository root")

const resultsReferencePath = "../../results_reference.txt"

func TestResultsReference(t *testing.T) {
	var out bytes.Buffer
	if err := testEnv().RunAll(context.Background(), 7, &out); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(resultsReferencePath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", out.Len(), resultsReferencePath)
		return
	}
	want, err := os.ReadFile(resultsReferencePath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Fatalf("RunAll(7) differs from %s at line %d:\n got: %q\nwant: %q\n(run with -update-golden only after an intentional change)",
				resultsReferencePath, i+1, g, w)
		}
	}
}
