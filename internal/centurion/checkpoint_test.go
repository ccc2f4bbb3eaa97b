package centurion

// The bit-identity contract of checkpoint/fork snapshots (ISSUE 9):
// Restore(Snapshot(t)) followed by stepping to T must be indistinguishable —
// counters, fabric stats, per-window series, per-node state, and the encoded
// checkpoint bytes themselves — from the uncheckpointed run, for every
// model × topology × fault timeline × stepping core, whether the fork lands
// on a fresh platform or one leased back dirty from a sync.Pool. The encoded
// checkpoint is canonical (identical state → identical bytes), which makes
// byte comparison the strongest available oracle: it covers the packet
// arena's books, ring slots, router records, RNG streams and timers that the
// observable-state comparison cannot see.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/noc"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// ckptModels is the model matrix shared by the checkpoint suites.
var ckptModels = []struct {
	name    string
	factory aim.Factory
	mapper  taskgraph.Mapper
}{
	{"none", aim.NewNone, taskgraph.HeuristicMapper{}},
	{"ni", aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}},
	{"ffw", aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
}

// ckptWindows advances p window by window (1 ms each), appending each
// window's completions to *series.
func ckptWindows(p *Platform, windows int, series *[]uint64, last *uint64) {
	for w := 0; w < windows; w++ {
		p.RunFor(sim.Ms(1), nil)
		c := p.Counters()
		*series = append(*series, c.InstancesCompleted-*last)
		*last = c.InstancesCompleted
	}
}

// ckptObserve captures the equivalence suite's observable set with the given
// per-window series.
func ckptObserve(p *Platform, series []uint64) steppingSnapshot {
	snap := steppingSnapshot{
		series:   series,
		counters: p.Counters(),
		net:      p.Net.Stats(),
		now:      p.Now(),
	}
	for _, pe := range p.PEs() {
		snap.tasks = append(snap.tasks, pe.Task())
		snap.work = append(snap.work, [3]uint64{pe.Stats.Generated, pe.Stats.Processed, pe.Stats.Switches})
	}
	return snap
}

// applySched arms the fault timeline (no-op for an empty schedule).
func applySched(p *Platform, sched faults.Schedule) {
	if !sched.Empty() {
		NewController(p).ApplySchedule(sched)
	}
}

// forkCheck runs the snapshot/fork protocol for one configuration:
//
//  1. Reference: an uncheckpointed run over the full horizon.
//  2. Source: the same run snapshotted at snapMs, then continued — proving
//     Snapshot is non-perturbing.
//  3. Fork: the checkpoint restored into whatever platform fork() supplies
//     (fresh or pool-leased), the timeline re-armed, and the remaining
//     horizon run.
//
// All three must agree on every observable and on the final encoded
// checkpoint bytes.
func forkCheck(t *testing.T, cfg Config, sched faults.Schedule, snapMs, totalMs int, fork func(*Checkpoint) *Platform) {
	t.Helper()

	ref := New(cfg)
	applySched(ref, sched)
	var refSeries []uint64
	var refLast uint64
	ckptWindows(ref, totalMs, &refSeries, &refLast)
	refObs := ckptObserve(ref, refSeries[snapMs:])
	refBytes := EncodeCheckpoint(ref.Snapshot())

	src := New(cfg)
	applySched(src, sched)
	var srcSeries []uint64
	var srcLast uint64
	ckptWindows(src, snapMs, &srcSeries, &srcLast)
	cp := src.Snapshot()

	forked := fork(cp)
	forked.Restore(cp)
	applySched(forked, sched)
	var fSeries []uint64
	fLast := forked.Counters().InstancesCompleted
	ckptWindows(forked, totalMs-snapMs, &fSeries, &fLast)
	forkObs := ckptObserve(forked, fSeries)
	forkBytes := EncodeCheckpoint(forked.Snapshot())

	ckptWindows(src, totalMs-snapMs, &srcSeries, &srcLast)
	contObs := ckptObserve(src, srcSeries[snapMs:])
	contBytes := EncodeCheckpoint(src.Snapshot())

	compareSnapshots(t, refObs, forkObs)
	compareSnapshots(t, refObs, contObs)
	if !bytes.Equal(refBytes, forkBytes) {
		t.Errorf("forked run's final checkpoint differs from the uncheckpointed reference (%d vs %d bytes)",
			len(forkBytes), len(refBytes))
	}
	if !bytes.Equal(refBytes, contBytes) {
		t.Errorf("taking a snapshot perturbed the source run: final checkpoints differ")
	}
}

// TestCheckpointForkBitIdentity is the core matrix: every model on every
// fabric under both stepping cores, checkpointed at 60 ms — after a 12-node
// kill wave at 50 ms has left dead routers, rerouted tables and in-flight
// recovery state for the snapshot to capture.
func TestCheckpointForkBitIdentity(t *testing.T) {
	for _, m := range ckptModels {
		for _, topo := range []string{"mesh", "torus", "cmesh"} {
			for _, dense := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/dense=%v", m.name, topo, dense), func(t *testing.T) {
					cfg := DefaultConfig(m.factory, m.mapper, 7)
					cfg.Topology = topo
					cfg.DenseStepping = dense
					probe := New(cfg)
					sched := buildHostile(t, probe, faults.Profile{Kind: faults.KindDeath, AtMs: 50, Nodes: 12}, 7)
					forkCheck(t, cfg, sched, 60, 120, func(*Checkpoint) *Platform { return New(cfg) })
				})
			}
		}
	}
}

// TestCheckpointHostileTimelines forks before (30 ms) and inside (60 ms)
// each hostile timeline: churn revivals, flaky link flaps, cascade waves and
// byzantine routers all have pending events that ApplySchedule must re-arm
// on the fork — and already-fired events whose effects (including advanced
// per-router byzantine RNG streams) ride in the checkpoint.
func TestCheckpointHostileTimelines(t *testing.T) {
	for _, prof := range hostileProfiles {
		for _, snapMs := range []int{30, 60} {
			t.Run(fmt.Sprintf("%s/snap=%dms", prof.Kind, snapMs), func(t *testing.T) {
				cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5)
				probe := New(cfg)
				sched := buildHostile(t, probe, prof, 5)
				forkCheck(t, cfg, sched, snapMs, 150, func(*Checkpoint) *Platform { return New(cfg) })
			})
		}
	}
}

// TestCheckpointRestoreIntoPooledPlatform restores into a platform leased
// back from a sync.Pool still dirty from a byzantine run — leftover faults,
// buffered packets, armed routers and queued events must all be overwritten
// by Restore alone, with no Reset in between.
func TestCheckpointRestoreIntoPooledPlatform(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 11)
	pool := sync.Pool{New: func() any { return New(cfg) }}

	dirty := pool.Get().(*Platform)
	driveHostile(dirty, buildHostile(t, dirty, hostileProfiles[3], 0xbada))
	pool.Put(dirty)

	probe := New(cfg)
	sched := buildHostile(t, probe, hostileProfiles[0], 11)
	forkCheck(t, cfg, sched, 60, 120, func(*Checkpoint) *Platform {
		return pool.Get().(*Platform)
	})
}

// TestCheckpointMegaFabric exercises the 64×64 grid (XY routing as large
// fabrics run it) on a short horizon: 4096 nodes of arena, ring and router
// state through the snapshot/fork/byte-compare protocol, with a kill wave
// landing before the snapshot.
func TestCheckpointMegaFabric(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 21)
	cfg.Width, cfg.Height = 64, 64
	cfg.NoC.Mode = noc.RouteXY
	probe := New(cfg)
	sched := buildHostile(t, probe, faults.Profile{Kind: faults.KindDeath, AtMs: 3, Nodes: 12}, 21)
	forkCheck(t, cfg, sched, 5, 10, func(*Checkpoint) *Platform { return New(cfg) })
}

// TestCheckpointCodecRoundTrip is the cross-process determinism proof:
// encode → decode → restore → step must match the in-memory restore bit for
// bit, the encoding must be canonical under decode → re-encode, and the
// file writer/reader must round-trip exactly.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 17)
	src := New(cfg)
	sched := buildHostile(t, src, hostileProfiles[0], 17)
	applySched(src, sched)
	var series []uint64
	var last uint64
	ckptWindows(src, 60, &series, &last)
	cp := src.Snapshot()
	data := EncodeCheckpoint(cp)

	dec, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}
	if !bytes.Equal(EncodeCheckpoint(dec), data) {
		t.Errorf("decode → re-encode is not byte-identical")
	}

	path := filepath.Join(t.TempDir(), "prefix.ckpt")
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatalf("writing checkpoint file: %v", err)
	}
	fromFile, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("reading checkpoint file: %v", err)
	}
	if !bytes.Equal(EncodeCheckpoint(fromFile), data) {
		t.Errorf("file round-trip is not byte-identical")
	}

	run := func(c *Checkpoint) ([]uint64, steppingSnapshot, []byte) {
		p := New(cfg)
		p.Restore(c)
		applySched(p, sched)
		var s []uint64
		l := p.Counters().InstancesCompleted
		ckptWindows(p, 60, &s, &l)
		return s, ckptObserve(p, s), EncodeCheckpoint(p.Snapshot())
	}
	_, memObs, memBytes := run(cp)
	_, decObs, decBytes := run(dec)
	_, fileObs, fileBytes := run(fromFile)
	compareSnapshots(t, memObs, decObs)
	compareSnapshots(t, memObs, fileObs)
	if !bytes.Equal(memBytes, decBytes) || !bytes.Equal(memBytes, fileBytes) {
		t.Errorf("decoded-checkpoint forks diverged from the in-memory fork")
	}
}

// TestCheckpointCodecRejectsDamage proves truncated, corrupted and misframed
// checkpoint files fail loudly with descriptive errors instead of restoring
// garbage.
func TestCheckpointCodecRejectsDamage(t *testing.T) {
	cfg := DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)
	p := New(cfg)
	p.RunFor(sim.Ms(5), nil)
	data := EncodeCheckpoint(p.Snapshot())

	for _, n := range []int{0, 4, ckptHeaderLen - 1, ckptHeaderLen + 16, len(data) - 1} {
		if _, err := DecodeCheckpoint(data[:n]); !errors.Is(err, ErrCheckpointTruncated) {
			t.Errorf("truncated to %d bytes: got %v, want ErrCheckpointTruncated", n, err)
		}
	}

	badMagic := bytes.Clone(data)
	badMagic[0] ^= 0xff
	if _, err := DecodeCheckpoint(badMagic); err == nil {
		t.Errorf("bad magic accepted")
	}

	badVersion := bytes.Clone(data)
	badVersion[8] ^= 0xff
	if _, err := DecodeCheckpoint(badVersion); err == nil {
		t.Errorf("unknown version accepted")
	}

	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/2] ^= 0x01
	if _, err := DecodeCheckpoint(corrupt); !errors.Is(err, ErrCheckpointChecksum) {
		t.Errorf("corrupted payload: got %v, want ErrCheckpointChecksum", err)
	}

	trailing := append(bytes.Clone(data), 0xEE)
	if _, err := DecodeCheckpoint(trailing); err == nil {
		t.Errorf("trailing bytes accepted")
	}
}

// TestCheckpointShapeMismatchPanics: restoring into a platform of a
// different geometry is a programming error and must fail fast.
func TestCheckpointShapeMismatchPanics(t *testing.T) {
	cp := New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)).Snapshot()
	small := DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)
	small.Width, small.Height = 8, 8
	other := New(small)
	defer func() {
		if recover() == nil {
			t.Errorf("restore into a differently shaped platform did not panic")
		}
	}()
	other.Restore(cp)
}
