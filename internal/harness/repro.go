package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"srvsim/internal/compiler"
	"srvsim/internal/pipeline"
	"srvsim/internal/workloads"
)

// CrashArtifact is the on-disk record of one contained failure: everything
// needed to regenerate the failing simulation from scratch (workload shape
// and seed for harness loops, (seed, trial) for fuzzer trials) plus the
// observed failure itself. Written as JSON under the crash directory and
// replayed with `srvsim -repro <file>`.
type CrashArtifact struct {
	// SchemaVersion of the artifact encoding (the harness-wide
	// SchemaVersion); zero marks an artifact written before versioning.
	// Validation errors cite it so a stale artifact is diagnosed as such.
	SchemaVersion int `json:"schema_version,omitempty"`

	Tool    string `json:"tool"` // "harness" or "srvfuzz"
	Bench   string `json:"bench,omitempty"`
	Loop    string `json:"loop,omitempty"`
	Variant string `json:"variant,omitempty"`
	Seed    int64  `json:"seed"`

	// Harness loop failures: the workload is rebuilt from its shape.
	Shape    *workloads.Shape `json:"shape,omitempty"`
	Weight   float64          `json:"weight,omitempty"`
	PredTail bool             `json:"pred_tail,omitempty"`
	Config   *pipeline.Config `json:"config,omitempty"`

	// srvfuzz trial failures: the trial is regenerated from (seed, trial).
	Trial      int  `json:"trial,omitempty"`
	Affine     bool `json:"affine,omitempty"`
	Interrupts bool `json:"interrupts,omitempty"`

	Failure   FailureRecord `json:"failure"`
	Diagnosis string        `json:"diagnosis,omitempty"`
}

// sanitize maps an artifact name onto the filename-safe alphabet.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
}

// writeArtifact serialises one artifact into dir, creating it if needed.
func writeArtifact(dir, name string, art CrashArtifact) (string, error) {
	if art.SchemaVersion == 0 {
		art.SchemaVersion = SchemaVersion
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("harness: creating crash dir: %w", err)
	}
	path := filepath.Join(dir, sanitize(name)+".json")
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return "", fmt.Errorf("harness: encoding crash artifact: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("harness: writing crash artifact: %w", err)
	}
	return path, nil
}

// diagnose re-runs a failed loop once, under the pipeline configuration it
// failed with, with invariant checking and the pipeview timeline enabled;
// records whether the failure reproduces; and writes the crash artifact.
// Both steps are gated on the Env's CrashDir; library users and most tests
// leave it empty.
func (e *Env) diagnose(se *SimError, pcfg pipeline.Config, bench string, ls workloads.LoopSpec, seed int64) {
	if e.CrashDir == "" {
		return
	}
	a := attribution{bench: bench, loop: ls.Shape.Name, variant: "diag", seed: seed}
	diagnosis := "not reproduced under diagnostic re-run (transient or injected fault)"
	if derr := a.guard(func() error {
		_, err := e.runLoop(context.Background(), pcfg, bench, ls, seed, true)
		return err
	}); derr != nil {
		diagnosis = "reproduced under invariants+timeline: " + derr.Error()
		if dse := AsSimError(derr); dse.Snapshot != "" && se.Snapshot == "" {
			se.Snapshot = dse.Snapshot
		}
	}
	art := CrashArtifact{
		Tool: "harness", Bench: bench, Loop: ls.Shape.Name, Variant: se.Variant,
		Seed: seed, Shape: &ls.Shape, Weight: ls.Weight, PredTail: ls.PredTail,
		Config: &pcfg, Failure: se.Record(), Diagnosis: diagnosis,
	}
	name := fmt.Sprintf("%s_%s_%s_%s", bench, ls.Shape.Name, se.Variant, se.Kind)
	if path, err := writeArtifact(e.CrashDir, name, art); err == nil {
		se.Artifact = path
	} else {
		fmt.Fprintln(os.Stderr, err)
	}
}

// WriteFuzzArtifact records one failed fuzzer trial (srvfuzz -keep-going).
func WriteFuzzArtifact(dir string, seed int64, trial int, affine, interrupts bool, se *SimError) (string, error) {
	art := CrashArtifact{
		Tool: "srvfuzz", Bench: se.Bench, Loop: se.Loop, Variant: se.Variant,
		Seed: seed, Trial: trial, Affine: affine, Interrupts: interrupts,
		Failure: se.Record(),
	}
	path, err := writeArtifact(dir, fmt.Sprintf("srvfuzz_trial%d_%s", trial, se.Kind), art)
	if err == nil {
		se.Artifact = path
	}
	return path, err
}

// Validate checks that the artifact carries every field its tool's replay
// needs. Errors name the missing field together with the artifact's schema
// version, so a stale, truncated or hand-edited artifact is diagnosed as
// such instead of failing deep inside the replay.
func (art *CrashArtifact) Validate() error {
	missing := func(field string) error {
		return fmt.Errorf("harness: crash artifact (schema v%d, current v%d) is missing required field %q",
			art.SchemaVersion, SchemaVersion, field)
	}
	if art.SchemaVersion > SchemaVersion {
		return fmt.Errorf("harness: crash artifact has schema v%d, this build reads v%d — replay it with a newer build",
			art.SchemaVersion, SchemaVersion)
	}
	if art.Failure.Kind == "" {
		return missing("failure.kind")
	}
	if _, ok := ParseFailKind(art.Failure.Kind); !ok {
		return fmt.Errorf("harness: crash artifact (schema v%d) has unknown failure.kind %q",
			art.SchemaVersion, art.Failure.Kind)
	}
	switch art.Tool {
	case "srvfuzz":
		if art.Trial < 0 {
			return fmt.Errorf("harness: crash artifact (schema v%d) has negative trial %d", art.SchemaVersion, art.Trial)
		}
	case "harness", "":
		if art.Shape == nil {
			return missing("shape")
		}
		if art.Shape.Name == "" {
			return missing("shape.name")
		}
	default:
		return fmt.Errorf("harness: crash artifact (schema v%d) names unknown tool %q", art.SchemaVersion, art.Tool)
	}
	return nil
}

// ReplayArtifact loads a crash artifact and re-runs the recorded simulation
// with full diagnostics (invariants + timeline). It reports whether the
// original failure reproduced; the returned error is non-nil only when the
// replay machinery itself fails (unreadable or invalid artifact, unknown
// tool). Deadlock artifacts carrying a machine checkpoint are additionally
// restored and single-stepped from the wedge. The replay runs on this Env's
// workers and core, without its chaos and fleet accounting.
func (e *Env) ReplayArtifact(ctx context.Context, path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var art CrashArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return fmt.Errorf("harness: decoding crash artifact %s: %w", path, err)
	}
	if err := art.Validate(); err != nil {
		return fmt.Errorf("%w (artifact %s)", err, path)
	}
	fmt.Fprintf(w, "replaying %s: tool=%s bench=%s loop=%s variant=%s seed=%d\n",
		filepath.Base(path), art.Tool, art.Bench, art.Loop, art.Variant, art.Seed)
	fmt.Fprintf(w, "recorded failure: [%s] %s\n", art.Failure.Kind, art.Failure.Message)

	var rerr error
	switch art.Tool {
	case "srvfuzz":
		a := attribution{bench: "srvfuzz", loop: fmt.Sprintf("trial-%d", art.Trial), variant: "repro", seed: art.Seed}
		rerr = a.guard(func() error {
			_, err := runFuzzTrial(ctx, art.Seed, art.Trial, art.Affine, art.Interrupts)
			return err
		})
	case "harness", "":
		ls := workloads.LoopSpec{Shape: *art.Shape, Weight: art.Weight, PredTail: art.PredTail}
		pcfg := cfg()
		if art.Config != nil {
			pcfg = *art.Config
		}
		a := attribution{bench: art.Bench, loop: ls.Shape.Name, variant: "repro", seed: art.Seed}
		rerr = a.guard(func() error {
			_, err := e.runLoop(ctx, pcfg, art.Bench, ls, art.Seed, true)
			return err
		})
	}

	if rerr != nil {
		fmt.Fprintf(w, "replay: REPRODUCED — %v\n", rerr)
		if se := AsSimError(rerr); se.Snapshot != "" {
			fmt.Fprintf(w, "\n%s\n", se.Snapshot)
		}
	} else {
		fmt.Fprintf(w, "replay: PASS — failure did not reproduce under invariants+timeline\n")
		fmt.Fprintf(w, "(the original fault was transient, environmental, or chaos-injected)\n")
	}
	if len(art.Failure.Checkpoint) > 0 {
		stepWedgeCheckpoint(&art, w)
	}
	return nil
}

// wedgeSteps bounds the checkpoint single-step loop: enough cycles to watch
// the wedge not move, few enough to stay instant.
const wedgeSteps = 4

// stepWedgeCheckpoint restores the artifact's embedded machine checkpoint
// and single-steps from the wedge, printing the machine after each cycle.
// Failures here are reported to w, never returned: the checkpoint is a
// forensics bonus on top of the replay, not a replay prerequisite (e.g. a
// chaos-injected livelock embeds the injected spin program's checkpoint,
// which by design does not fit the recorded workload).
func stepWedgeCheckpoint(art *CrashArtifact, w io.Writer) {
	var cp pipeline.Checkpoint
	if err := json.Unmarshal(art.Failure.Checkpoint, &cp); err != nil {
		fmt.Fprintf(w, "checkpoint: undecodable: %v\n", err)
		return
	}
	if art.Shape == nil {
		fmt.Fprintf(w, "checkpoint: no workload shape to rebuild the machine around\n")
		return
	}
	ls := workloads.LoopSpec{Shape: *art.Shape, Weight: art.Weight, PredTail: art.PredTail}
	l, im := ls.Instantiate(art.Seed)
	mode := compiler.ModeSRV
	if art.Variant == "scalar" {
		mode = compiler.ModeScalar
	}
	c, err := compiler.Compile(l, im, mode)
	if err != nil {
		fmt.Fprintf(w, "checkpoint: recompiling workload: %v\n", err)
		return
	}
	pcfg := cfg()
	if art.Config != nil {
		pcfg = *art.Config
	}
	p := pipeline.New(pcfg, c.Prog, im)
	if err := p.Restore(&cp); err != nil {
		fmt.Fprintf(w, "checkpoint: not restorable against this workload: %v\n", err)
		return
	}
	fmt.Fprintf(w, "\nsingle-stepping from the wedge checkpoint (cycle %d):\n%s", cp.Cycle, p.Snapshot())
	for i := 0; i < wedgeSteps; i++ {
		err := p.Run()
		var de *pipeline.DeadlockError
		switch {
		case err == nil:
			fmt.Fprintf(w, "step %d: run completed cleanly at cycle %d — the wedge did not persist\n", i+1, p.Stats.Cycles)
			return
		case errors.As(err, &de):
			fmt.Fprintf(w, "step %d: still wedged at cycle %d\n%s", i+1, de.Cycle, de.Snapshot)
			if de.Checkpoint == nil {
				return
			}
			if rerr := p.Restore(de.Checkpoint); rerr != nil {
				fmt.Fprintf(w, "step %d: re-restore failed: %v\n", i+1, rerr)
				return
			}
		default:
			fmt.Fprintf(w, "step %d: run failed: %v\n", i+1, err)
			return
		}
	}
}
