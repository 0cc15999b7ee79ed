package pipeline

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
	"srvsim/internal/workloads"
)

// Equivalence suite: every scenario's observable outputs — Stats, the
// controller and LSU counters, the DumpStats rendering, architectural
// state, the memory image, sampler rows and trace events — are pinned
// across the whole workload sweep plus interrupt / fault / wedge / budget /
// ablation variants and randomised fuzz loops. testdata/equiv_digests.golden
// holds one line per scenario: a hash of its digest text and final memory
// image. The test keeps its historical name, TestCrossCoreEquivalence, from
// when a second scheduler was compared against the same scenarios.
// After an intentional change to simulated behaviour, regenerate it with
// `go test ./internal/pipeline -run TestCrossCoreEquivalence -update-golden`
// (or `make equiv-golden`). Setting SRVSIM_EQUIV_GOLDEN=<path> additionally
// writes the full digest text per scenario, so two captures can be diffed.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/equiv_digests.golden")

const equivGoldenPath = "testdata/equiv_digests.golden"

type equivScenario struct {
	name  string
	build func() (*Pipeline, *mem.Image)
}

// buildWorkload instantiates one workload loop and compiles it.
func buildWorkload(bench string, loopIdx int, mode compiler.Mode) (Config, *compiler.Compiled, *mem.Image) {
	w, ok := workloads.ByName(bench)
	if !ok {
		panic(fmt.Sprintf("unknown benchmark %q", bench))
	}
	l, im := w.Loops[loopIdx].Instantiate(7)
	c, err := compiler.Compile(l, im, mode)
	if err != nil {
		panic(fmt.Sprintf("compile %s/%d: %v", bench, loopIdx, err))
	}
	return DefaultConfig(), c, im
}

func modeName(m compiler.Mode) string {
	switch m {
	case compiler.ModeScalar:
		return "scalar"
	case compiler.ModeSRV:
		return "srv"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// equivScenarios enumerates every behaviour the golden file pins.
func equivScenarios() []equivScenario {
	var scns []equivScenario
	add := func(name string, build func() (*Pipeline, *mem.Image)) {
		scns = append(scns, equivScenario{name: name, build: build})
	}

	// 1. Full workload sweep, scalar and SRV.
	for _, w := range workloads.All() {
		for li := range w.Loops {
			for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
				w, li, mode := w, li, mode
				add(fmt.Sprintf("%s/%d/%s", w.Name, li, modeName(mode)), func() (*Pipeline, *mem.Image) {
					cfg, c, im := buildWorkload(w.Name, li, mode)
					return New(cfg, c.Prog, im), im
				})
			}
		}
	}

	// 2. Interrupts at several timings: mid-region delivery, §III-D resume
	// freezes, and the post-drain redelivery path.
	for _, iv := range []struct{ at, dur int64 }{{120, 40}, {1000, 100}, {7777, 64}} {
		iv := iv
		for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
			mode := mode
			add(fmt.Sprintf("intr/%d+%d/%s", iv.at, iv.dur, modeName(mode)), func() (*Pipeline, *mem.Image) {
				cfg, c, im := buildWorkload("is", 0, mode)
				p := New(cfg, c.Prog, im)
				p.ScheduleInterrupt(iv.at, iv.dur)
				return p, im
			})
		}
	}

	// 3. Observability attached: the sampler boundary and trace-counter
	// cadence must survive cycle skipping exactly.
	for _, every := range []int64{1, 7, 64} {
		every := every
		add(fmt.Sprintf("sample/%d", every), func() (*Pipeline, *mem.Image) {
			cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
			p := New(cfg, c.Prog, im)
			p.EnableSampling(every)
			return p, im
		})
	}
	add("trace", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		p := New(cfg, c.Prog, im)
		p.AttachTracer(obsv.NewTracer())
		p.EnableSampling(16)
		return p, im
	})
	add("timeline", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		p := New(cfg, c.Prog, im)
		p.EnableTimeline()
		return p, im
	})
	add("paranoid", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		p := New(cfg, c.Prog, im)
		p.EnableParanoid()
		return p, im
	})

	// 4. Abnormal exits: the cycle-budget and watchdog paths must fire at
	// the pinned cycle with the pinned snapshot.
	add("budget", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.MaxCycles = 2500
		return New(cfg, c.Prog, im), im
	})
	add("wedge", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.WatchdogCycles = 500
		p := New(cfg, c.Prog, im)
		p.InjectWedge(2000)
		return p, im
	})
	add("wedge-sampled", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.WatchdogCycles = 300
		p := New(cfg, c.Prog, im)
		p.InjectWedge(1500)
		p.EnableSampling(64)
		return p, im
	})

	// 5. Ablations toggle distinct issue/ready/replay paths.
	type abl struct {
		name string
		mut  func(*Config)
	}
	for _, a := range []abl{
		{"relaxed-barrier", func(c *Config) { c.RelaxedBarrier = true }},
		{"conservative-mem", func(c *Config) { c.ConservativeMem = true }},
		{"inorder", func(c *Config) { c.InOrder = true }},
		{"prefetch", func(c *Config) { c.Prefetch = true }},
		{"no-selective-replay", func(c *Config) { c.NoSelectiveReplay = true }},
	} {
		a := a
		add("abl/"+a.name, func() (*Pipeline, *mem.Image) {
			cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
			a.mut(&cfg)
			return New(cfg, c.Prog, im), im
		})
	}

	// 6. Tight structural budgets force dispatch stalls and the LSQ-overflow
	// sequential fallback.
	add("smallcfg", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.Width = 4
		cfg.ROBSize = 24
		cfg.IQSize = 8
		cfg.LSQSize = 8
		return New(cfg, c.Prog, im), im
	})
	// Budgets past New's 1024-entry slabs: the scalar loop outgrows the ROB
	// slab and the SRV loop the LSU slab, so both lazy fallbacks run.
	for _, m := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
		m := m
		add("bigcfg/"+m.String(), func() (*Pipeline, *mem.Image) {
			cfg, c, im := buildWorkload("soplex", 0, m)
			cfg.ROBSize, cfg.LSQSize, cfg.IQSize = 4096, 4096, 512
			return New(cfg, c.Prog, im), im
		})
	}

	// 7. Precise faults: oldest-lane immediate delivery and younger-lane
	// deferral to replay, plus a fault racing an interrupt.
	buildFault := func(lane int) (*Pipeline, *mem.Image, uint64) {
		im := mem.NewImage()
		aBase := im.Alloc(64*4, 64)
		xBase := im.Alloc(16*4, 64)
		dBase := im.Alloc(16*4, 64)
		for i := 0; i < 64; i++ {
			im.WriteInt(aBase+uint64(i*4), 4, int64(i*7))
		}
		for i := 0; i < 16; i++ {
			im.WriteInt(xBase+uint64(i*4), 4, int64(i*2))
		}
		p := New(DefaultConfig(), faultProg(aBase, xBase, dBase), im)
		p.FaultAddrs = map[uint64]bool{aBase + uint64(lane*2*4): true}
		return p, im, aBase
	}
	add("fault/lane0", func() (*Pipeline, *mem.Image) {
		p, im, _ := buildFault(0)
		return p, im
	})
	add("fault/lane5", func() (*Pipeline, *mem.Image) {
		p, im, _ := buildFault(5)
		return p, im
	})
	add("fault/lane5+intr", func() (*Pipeline, *mem.Image) {
		p, im, _ := buildFault(5)
		p.ScheduleInterrupt(30, 25)
		return p, im
	})

	// 8. Randomised loops (the srvfuzz generator), some with interrupts:
	// shapes no hand-written workload covers.
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
			mode := mode
			add(fmt.Sprintf("rand/%d/%s", seed, modeName(mode)), func() (*Pipeline, *mem.Image) {
				rng := rand.New(rand.NewSource(seed))
				l := compiler.RandomLoop(rng)
				if seed%2 == 0 {
					l = compiler.RandomAffineLoop(rng)
				}
				im := mem.NewImage()
				compiler.SeedRandomLoop(l, im, rng)
				c, err := compiler.Compile(l, im, mode)
				if err != nil {
					// Some random loops reject SRV (proven dependence);
					// fall back to scalar so the scenario stays deterministic.
					c, err = compiler.Compile(l, im, compiler.ModeScalar)
					if err != nil {
						panic(fmt.Sprintf("rand/%d compile: %v", seed, err))
					}
				}
				cfg := DefaultConfig()
				cfg.MaxCycles = 50_000_000
				p := New(cfg, c.Prog, im)
				if seed%3 == 0 {
					p.ScheduleInterrupt(10+seed*37, 20+seed*5)
				}
				return p, im
			})
		}
	}

	return scns
}

func fnvHash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// equivDigest runs the pipeline and renders everything observable about the
// run as text: exit status, every counter, the DumpStats rendering, hashed
// architectural state, and hashed sampler / tracer output.
func equivDigest(p *Pipeline) string {
	return runDigest(p, p.Run())
}

// runDigest renders the digest for a pipeline whose run already returned err.
func runDigest(p *Pipeline, err error) string { return digest(p, err, true) }

// machineDigest is runDigest without the observers' output: what a restored
// pipeline must reproduce, since observers record only from the restore on.
func machineDigest(p *Pipeline, err error) string { return digest(p, err, false) }

func digest(p *Pipeline, err error, observers bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err: %v\n", err)
	if de, ok := err.(*DeadlockError); ok {
		fmt.Fprintf(&b, "deadlock: cycle=%d window=%d pc=%d\nsnapshot:\n%s", de.Cycle, de.Window, de.PC, de.Snapshot)
	}
	fmt.Fprintf(&b, "stats: %+v\n", p.Stats)
	fmt.Fprintf(&b, "ctrl: %+v\n", p.Ctrl.Stats)
	fmt.Fprintf(&b, "arch: %s\n", fnvHash(fmt.Sprintf("%v %v %v", p.S, p.Vr, p.Pr)))
	if observers {
		if p.sampler != nil {
			var csv bytes.Buffer
			if err := p.sampler.WriteCSV(&csv); err != nil {
				fmt.Fprintf(&b, "sampler: error %v\n", err)
			} else {
				fmt.Fprintf(&b, "sampler: rows=%d hash=%s\n", p.sampler.Len(), fnvHash(csv.String()))
			}
		}
		if p.tracer != nil {
			var js bytes.Buffer
			if err := p.tracer.WriteJSON(&js); err != nil {
				fmt.Fprintf(&b, "tracer: error %v\n", err)
			} else {
				fmt.Fprintf(&b, "tracer: events=%d dropped=%d hash=%s\n", p.tracer.Len(), p.tracer.Dropped(), fnvHash(js.String()))
			}
		}
		if p.recordTimeline {
			fmt.Fprintf(&b, "timeline: entries=%d dropped=%d hash=%s\n",
				len(p.Timeline()), p.TimelineDropped(), fnvHash(fmt.Sprintf("%+v", p.Timeline())))
		}
	}
	b.WriteString(p.DumpStats())
	return b.String()
}

// imageHash hashes the non-zero pages of an image in address order (zero
// pages read the same as absent ones, as in Image.Equal).
func imageHash(im *mem.Image) []byte {
	h := sha256.New()
	var pn [8]byte
	for _, pg := range im.State().Pages {
		if bytes.Count(pg.Data, []byte{0}) == len(pg.Data) {
			continue
		}
		binary.LittleEndian.PutUint64(pn[:], pg.PN)
		h.Write(pn[:])
		h.Write(pg.Data)
	}
	return h.Sum(nil)
}

// goldenLine renders one scenario's line of the golden file.
func goldenLine(name, digest string, im *mem.Image) string {
	h := sha256.New()
	h.Write([]byte(digest))
	h.Write(imageHash(im))
	return fmt.Sprintf("%s %x", name, h.Sum(nil)[:16])
}

// readEquivGolden loads the golden file as scenario name -> line.
func readEquivGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(equivGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/pipeline -run TestCrossCoreEquivalence -update-golden` to create it)", err)
	}
	defer f.Close()
	lines := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		lines[name] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestCrossCoreEquivalence runs every scenario once and requires its digest
// and memory image to match testdata/equiv_digests.golden. With
// SRVSIM_EQUIV_GOLDEN set it additionally writes the digests to the named
// file for out-of-tree diffing.
func TestCrossCoreEquivalence(t *testing.T) {
	golden := os.Getenv("SRVSIM_EQUIV_GOLDEN")
	var goldenBuf bytes.Buffer
	var want map[string]string
	if !*updateGolden {
		want = readEquivGolden(t)
	}
	scns := equivScenarios()
	var lines []string
	for _, sc := range scns {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			p, im := sc.build()
			d := equivDigest(p)
			line := goldenLine(sc.name, d, im)
			lines = append(lines, line)
			if want != nil && want[sc.name] != line {
				t.Errorf("outputs drifted from %s:\n got: %s\nwant: %s\n(if the change to simulated behaviour is intentional, run `make equiv-golden`)",
					equivGoldenPath, line, want[sc.name])
			}
			if golden != "" {
				fmt.Fprintf(&goldenBuf, "=== %s\n%s\n", sc.name, d)
			}
		})
	}
	if golden != "" {
		if err := os.WriteFile(golden, goldenBuf.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("wrote golden digests to %s", golden)
	}
	if *updateGolden {
		if len(lines) != len(scns) {
			t.Fatalf("-update-golden needs every scenario: %d of %d ran", len(lines), len(scns))
		}
		if err := os.MkdirAll(filepath.Dir(equivGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(equivGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d scenario digests to %s", len(lines), equivGoldenPath)
	}
}
