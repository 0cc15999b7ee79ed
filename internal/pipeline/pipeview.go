package pipeline

import (
	"fmt"
	"strings"

	"srvsim/internal/obsv"
)

// TimelineEntry records one committed instruction's movement through the
// pipeline stages (cycles).
type TimelineEntry struct {
	Seq      int64
	PC       int
	Op       string
	Fetch    int64
	Dispatch int64
	Issue    int64
	Done     int64
	Commit   int64
}

// RecordTimeline enables per-instruction stage recording (Config has no
// field for it to keep the hot path lean; callers set it on the Pipeline
// before Run). At most TimelineCap entries are kept.
const TimelineCap = 4096

// EnableTimeline switches stage recording on.
func (p *Pipeline) EnableTimeline() { p.recordTimeline = true }

// Timeline returns the recorded entries (committed instructions only).
func (p *Pipeline) Timeline() []TimelineEntry { return p.timeline }

// TimelineDropped returns the number of committed instructions that were NOT
// recorded because the timeline had already reached TimelineCap. Non-zero
// means the rendered timeline is a truncated prefix of the run.
func (p *Pipeline) TimelineDropped() int64 { return p.timelineDropped }

// RenderTimeline renders the pipeline's own recorded window and, when the
// cap was exceeded, appends a truncation note so a partial timeline is never
// mistaken for the whole run.
func (p *Pipeline) RenderTimeline(from, to int) string {
	s := RenderTimeline(p.timeline, from, to)
	if p.timelineDropped > 0 {
		s += fmt.Sprintf("(timeline truncated: %d committed instructions dropped after the first %d entries)\n",
			p.timelineDropped, TimelineCap)
	}
	return s
}

// RegionDurations returns the distribution of per-region cycle counts (from
// srv_start execution to region commit, including replay rounds) over every
// committed region of the run.
func (p *Pipeline) RegionDurations() *obsv.Histogram { return p.regionHist }

// RenderTimeline draws a gem5-pipeview-style ASCII chart of the entries in
// [from, to): one row per instruction, one column per cycle, with
// f=fetched, d=dispatched, i=issued, =executing, c=commit.
func RenderTimeline(entries []TimelineEntry, from, to int) string {
	if from < 0 {
		from = 0
	}
	if to > len(entries) {
		to = len(entries)
	}
	if from >= to {
		return "(no timeline entries)\n"
	}
	win := entries[from:to]
	base := win[0].Fetch
	end := win[0].Commit
	for _, e := range win {
		if e.Fetch < base {
			base = e.Fetch
		}
		if e.Commit > end {
			end = e.Commit
		}
	}
	width := int(end - base + 1)
	if width > 200 {
		width = 200
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-4s %-11s cycles %d..%d\n", "seq", "pc", "op", base, base+int64(width)-1)
	for _, e := range win {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		put := func(cyc int64, ch byte) {
			if i := int(cyc - base); i >= 0 && i < width {
				row[i] = ch
			}
		}
		// Executing span between issue and done.
		for c := e.Issue + 1; c < e.Done; c++ {
			put(c, '=')
		}
		put(e.Fetch, 'f')
		put(e.Dispatch, 'd')
		put(e.Issue, 'i')
		put(e.Commit, 'c')
		fmt.Fprintf(&b, "%-6d %-4d %-11s %s\n", e.Seq, e.PC, e.Op, string(row))
	}
	return b.String()
}
