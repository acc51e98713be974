package main

import (
	"fmt"

	"polyufc/internal/cachesim"
	"polyufc/internal/hw"
	"polyufc/internal/interp"
	"polyufc/internal/ir"
)

// refLevel is one level of the reference simulator. Each set holds up to
// ways (tag, last-use stamp) pairs; a miss into a full set evicts the way
// with the oldest stamp. internal/cachesim keeps move-to-front lists and
// a cold-miss map instead, so the two share no code.
type refLevel struct {
	sets, ways   int64
	tags, stamps [][]int64
	hits, misses int64
}

// refSim is a plain multi-level set-associative LRU hierarchy with the
// policies the paper models: a read walks the levels until one hits and
// allocates the line in every level it missed; a write does the same
// (write-allocate) and also sends the line to memory (write-through).
type refSim struct {
	line                int64
	levels              []*refLevel
	clock               int64
	dramRead, dramWrite int64
}

func newRefSim(cfg cachesim.Config) (*refSim, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("refsim: no cache levels")
	}
	r := &refSim{line: cfg.Levels[0].LineSize}
	for _, lc := range cfg.Levels {
		if lc.LineSize != r.line || lc.LineSize <= 0 {
			return nil, fmt.Errorf("refsim: level %s line size %d, want %d", lc.Name, lc.LineSize, r.line)
		}
		lines := lc.SizeBytes / lc.LineSize
		ways := lc.Assoc
		if ways <= 0 || ways > lines {
			ways = lines // fully associative
		}
		if lines%ways != 0 {
			return nil, fmt.Errorf("refsim: level %s: %d lines do not split into %d ways", lc.Name, lines, ways)
		}
		sets := lines / ways
		r.levels = append(r.levels, &refLevel{
			sets: sets, ways: ways,
			tags: make([][]int64, sets), stamps: make([][]int64, sets),
		})
	}
	return r, nil
}

// lookup reports whether line is resident, refreshing its stamp on a hit
// and allocating it (evicting the least recently used way) on a miss.
func (l *refLevel) lookup(line, now int64) bool {
	set := line % l.sets
	tags, stamps := l.tags[set], l.stamps[set]
	for i, t := range tags {
		if t == line {
			stamps[i] = now
			l.hits++
			return true
		}
	}
	l.misses++
	if int64(len(tags)) < l.ways {
		l.tags[set] = append(tags, line)
		l.stamps[set] = append(stamps, now)
		return false
	}
	victim := 0
	for i := range stamps {
		if stamps[i] < stamps[victim] {
			victim = i
		}
	}
	tags[victim], stamps[victim] = line, now
	return false
}

// access simulates one reference of size bytes at addr; a reference that
// spans lines touches each of them.
func (r *refSim) access(addr, size int64, write bool) {
	for line := addr / r.line; line <= (addr+size-1)/r.line; line++ {
		r.clock++
		hit := false
		for _, l := range r.levels {
			if l.lookup(line, r.clock) {
				hit = true
				break
			}
		}
		if !hit {
			r.dramRead += r.line
		}
		if write {
			r.dramWrite += r.line
		}
	}
}

// refProfile runs nest through the interpreter into the reference
// simulator and returns the counts hw.ProfileNest reports.
func refProfile(nest *ir.Nest, cfg cachesim.Config) (*hw.CacheProfile, error) {
	r, err := newRefSim(cfg)
	if err != nil {
		return nil, err
	}
	st, err := interp.RunNest(nest, interp.TracerFunc(r.access))
	if err != nil {
		return nil, err
	}
	p := &hw.CacheProfile{
		Flops: st.Flops, Instances: st.Instances, Loads: st.Loads, Stores: st.Stores,
		DRAMReadB: r.dramRead, DRAMWriteB: r.dramWrite,
	}
	for _, l := range r.levels {
		p.LevelHits = append(p.LevelHits, l.hits)
		p.LevelMisses = append(p.LevelMisses, l.misses)
	}
	p.LLCMisses = r.levels[len(r.levels)-1].misses
	return p, nil
}

// sameCounts compares the simulated counts of two profiles and describes
// the first difference ("" when they agree exactly).
func sameCounts(got, want *hw.CacheProfile) string {
	if len(got.LevelHits) != len(want.LevelHits) {
		return fmt.Sprintf("%d levels, want %d", len(got.LevelHits), len(want.LevelHits))
	}
	for i := range want.LevelHits {
		if got.LevelHits[i] != want.LevelHits[i] || got.LevelMisses[i] != want.LevelMisses[i] {
			return fmt.Sprintf("L%d hits/misses %d/%d, reference %d/%d", i+1,
				got.LevelHits[i], got.LevelMisses[i], want.LevelHits[i], want.LevelMisses[i])
		}
	}
	switch {
	case got.LLCMisses != want.LLCMisses:
		return fmt.Sprintf("LLC misses %d, reference %d", got.LLCMisses, want.LLCMisses)
	case got.DRAMReadB != want.DRAMReadB || got.DRAMWriteB != want.DRAMWriteB:
		return fmt.Sprintf("DRAM read/write bytes %d/%d, reference %d/%d",
			got.DRAMReadB, got.DRAMWriteB, want.DRAMReadB, want.DRAMWriteB)
	}
	return ""
}

// conservationFault checks one bench-size profile against the flow of
// references through the hierarchy and returns the first violation ("" if
// none): every load and store reaches L1 once (array elements are
// aligned, so no reference spans two lines), each level's misses are the
// next level's lookups, LLC misses fill lines from memory and every store
// writes a line through.
func conservationFault(p *hw.CacheProfile, line int64) string {
	reach := p.Loads + p.Stores
	for i := range p.LevelHits {
		if got := p.LevelHits[i] + p.LevelMisses[i]; got != reach {
			return fmt.Sprintf("L%d hits+misses %d, %d references reach it", i+1, got, reach)
		}
		reach = p.LevelMisses[i]
	}
	switch {
	case p.LLCMisses != reach:
		return fmt.Sprintf("LLC misses %d, last level missed %d", p.LLCMisses, reach)
	case p.DRAMReadB != reach*line:
		return fmt.Sprintf("DRAM read bytes %d, want %d LLC misses x %d", p.DRAMReadB, reach, line)
	case p.DRAMWriteB != p.Stores*line:
		return fmt.Sprintf("DRAM write bytes %d, want %d stores x %d", p.DRAMWriteB, p.Stores, line)
	}
	return ""
}
