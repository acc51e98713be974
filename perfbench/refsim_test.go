package main

import (
	"math/rand"
	"testing"

	"polyufc/internal/cachesim"
)

func oneLevel(size, assoc int64) cachesim.Config {
	return cachesim.Config{Levels: []cachesim.LevelConfig{{Name: "L1", SizeBytes: size, LineSize: 64, Assoc: assoc}}}
}

func mustRefSim(t *testing.T, cfg cachesim.Config) *refSim {
	t.Helper()
	r, err := newRefSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// One set of two ways: A B A C evicts B (A was used more recently), so
// the following A hits and B misses.
func TestRefSimEvictsLeastRecentlyUsed(t *testing.T) {
	r := mustRefSim(t, oneLevel(128, 2))
	for _, line := range []int64{0, 1, 0, 2, 0, 1} {
		r.access(line*64, 8, false)
	}
	l := r.levels[0]
	if l.hits != 2 || l.misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 2/4", l.hits, l.misses)
	}
	if r.dramRead != 4*64 || r.dramWrite != 0 {
		t.Fatalf("DRAM read/write = %d/%d, want %d/0", r.dramRead, r.dramWrite, 4*64)
	}
}

// Direct-mapped with two sets: lines 0 and 2 share set 0 and evict each
// other although the cache holds two lines; line 1 lives in set 1.
func TestRefSimConflictMisses(t *testing.T) {
	r := mustRefSim(t, oneLevel(128, 1))
	for _, line := range []int64{0, 2, 0, 2, 1, 1} {
		r.access(line*64, 8, false)
	}
	l := r.levels[0]
	if l.hits != 1 || l.misses != 5 {
		t.Fatalf("hits/misses = %d/%d, want 1/5", l.hits, l.misses)
	}
}

// An 8-byte write at byte 60 touches lines 0 and 1: two lookups, and
// write-through sends both lines to memory.
func TestRefSimLineSpanningAccess(t *testing.T) {
	r := mustRefSim(t, oneLevel(4096, 8))
	r.access(60, 8, true)
	l := r.levels[0]
	if l.hits != 0 || l.misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", l.hits, l.misses)
	}
	if r.dramRead != 128 || r.dramWrite != 128 {
		t.Fatalf("DRAM read/write = %d/%d, want 128/128", r.dramRead, r.dramWrite)
	}
}

// A miss in L1 that hits L2 reaches no further: L2 sees only L1's misses.
func TestRefSimLevelsSeeOnlyMisses(t *testing.T) {
	cfg := cachesim.Config{Levels: []cachesim.LevelConfig{
		{Name: "L1", SizeBytes: 64, LineSize: 64, Assoc: 1},
		{Name: "L2", SizeBytes: 256, LineSize: 64, Assoc: 4},
	}}
	r := mustRefSim(t, cfg)
	for _, line := range []int64{0, 1, 0} {
		r.access(line*64, 8, false)
	}
	if l1, l2 := r.levels[0], r.levels[1]; l1.misses != 3 || l2.hits != 1 || l2.misses != 2 {
		t.Fatalf("L1 misses %d, L2 hits/misses %d/%d, want 3, 1/2", l1.misses, l2.hits, l2.misses)
	}
}

// The reference agrees with internal/cachesim on random traces.
func TestRefSimMatchesCachesim(t *testing.T) {
	cfg := cachesim.Config{Levels: []cachesim.LevelConfig{
		{Name: "L1", SizeBytes: 1024, LineSize: 64, Assoc: 2},
		{Name: "L2", SizeBytes: 4096, LineSize: 64, Assoc: 4},
		{Name: "LLC", SizeBytes: 12288, LineSize: 64, Assoc: 3},
	}}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r := mustRefSim(t, cfg)
		sim, err := cachesim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			addr := rng.Int63n(1 << 15)
			size := []int64{4, 8, 16}[rng.Intn(3)]
			write := rng.Intn(4) == 0
			r.access(addr, size, write)
			sim.Access(addr, size, write)
		}
		for i, l := range r.levels {
			st := sim.LevelStats(i)
			if st.Hits != l.hits || st.Misses != l.misses {
				t.Fatalf("trial %d level %d: cachesim %d/%d, reference %d/%d", trial, i, st.Hits, st.Misses, l.hits, l.misses)
			}
		}
		if sim.DRAMReadBytes != r.dramRead || sim.DRAMWriteBytes != r.dramWrite {
			t.Fatalf("trial %d: DRAM cachesim %d/%d, reference %d/%d", trial,
				sim.DRAMReadBytes, sim.DRAMWriteBytes, r.dramRead, r.dramWrite)
		}
	}
}
