// srvfuzz runs the differential fuzzer as a standalone tool: random
// unknown-dependence loops are generated, compiled in scalar and SRV form,
// executed on the functional interpreter and the cycle-level pipeline, and
// every result is compared against the sequential reference evaluator.
// Any divergence is a bug in disambiguation, forwarding, replay, merging
// or recovery.
//
// Each trial draws from its own RNG stream derived from (seed, trial), so a
// single failing trial can be replayed in isolation: with -keep-going a
// failure writes a crash artifact (replayable via `srvsim -repro`) and the
// campaign continues, exiting 3 with a summary at the end. Without it the
// first failure stops the run (exit 1), as before.
//
// Usage:
//
//	srvfuzz -trials 500 -seed 1
//	srvfuzz -trials 100 -interrupts        # inject interrupts mid-run
//	srvfuzz -trials 300 -affine            # fuzz the dependence verdicts too
//	srvfuzz -trials 500 -keep-going        # contain failures, write artifacts
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"srvsim/internal/harness"
)

func main() {
	trials := flag.Int("trials", 200, "number of random loops")
	seed := flag.Int64("seed", 1, "fuzzer seed")
	interrupts := flag.Bool("interrupts", false, "inject an interrupt mid-run")
	affine := flag.Bool("affine", false, "generate affine loops and fuzz the dependence verdicts (SVE leg included)")
	verbose := flag.Bool("v", false, "print each trial's shape")
	keepGoing := flag.Bool("keep-going", false, "contain failures: write a crash artifact and continue fuzzing")
	crashdir := flag.String("crashdir", "crashes", "directory for -keep-going crash artifacts")
	flag.Parse()

	env, ctx := &harness.Env{}, context.Background()
	replays, regions := int64(0), int64(0)
	var fails []*harness.SimError
	for trial := 0; trial < *trials; trial++ {
		res, err := env.RunFuzzTrial(ctx, *seed, trial, *affine, *interrupts)
		if err != nil {
			se := harness.AsSimError(err)
			fmt.Fprintf(os.Stderr, "srvfuzz: %v\n", se)
			if !*keepGoing {
				os.Exit(1)
			}
			if path, werr := harness.WriteFuzzArtifact(*crashdir, *seed, trial, *affine, *interrupts, se); werr != nil {
				fmt.Fprintf(os.Stderr, "srvfuzz: writing crash artifact: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "srvfuzz: crash artifact written to %s (replay: srvsim -repro %s)\n", path, path)
			}
			fails = append(fails, se)
			continue
		}
		replays += res.Replays
		regions += res.Regions
		if *verbose {
			fmt.Printf("trial %4d ok: trip=%d down=%v stmts=%d verdict=%v\n",
				trial, res.Trip, res.Down, res.Stmts, res.Verdict)
		}
	}
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "srvfuzz: %d of %d trials FAILED (%d regions, %d replay rounds, interrupts=%v):\n",
			len(fails), *trials, regions, replays, *interrupts)
		for _, se := range fails {
			loc := se.Artifact
			if loc == "" {
				loc = "no artifact"
			}
			fmt.Fprintf(os.Stderr, "  %v (%s)\n", se, loc)
		}
		os.Exit(3)
	}
	fmt.Printf("srvfuzz: %d trials passed (%d regions, %d replay rounds, interrupts=%v)\n",
		*trials, regions, replays, *interrupts)
}
