package centurion

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// TestCheckpointCodecRejectsVersion1 pins the format bumps: version 1
// carried per-tile active sets and staging counters, version 2 the
// network's hop-row contents, and version 3 the directory's mutation
// counter, that the current layout no longer has, so older files must be
// refused by their header instead of being misread.
func TestCheckpointCodecRejectsVersion1(t *testing.T) {
	p := New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1))
	p.RunFor(sim.Ms(5), nil)
	for _, v := range []uint16{1, 2, 3} {
		data := EncodeCheckpoint(p.Snapshot())
		binary.LittleEndian.PutUint16(data[8:10], v)
		_, err := DecodeCheckpoint(data)
		if want := fmt.Sprintf("unsupported checkpoint version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d checkpoint: got %v, want an unsupported checkpoint version error", v, err)
		}
	}
}

// A checksum-valid checkpoint whose directory section is shorter than its
// node grid must fail to decode. Restore sizes the directory by the target
// platform: a short TaskOf would panic there, and a short Alive would
// silently keep the target's liveness for the missing nodes.
func TestCheckpointCodecRejectsShortDirectoryTaskOf(t *testing.T) {
	cp := New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)).Snapshot()
	cp.dir.TaskOf = cp.dir.TaskOf[:len(cp.dir.TaskOf)-3]
	if _, err := DecodeCheckpoint(EncodeCheckpoint(cp)); err == nil || !strings.Contains(err.Error(), "checkpoint directory") {
		t.Fatalf("short directory TaskOf: got %v, want a directory length error", err)
	}
}

func TestCheckpointCodecRejectsShortDirectoryAlive(t *testing.T) {
	cp := New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)).Snapshot()
	cp.dir.Alive = cp.dir.Alive[:len(cp.dir.Alive)-3]
	if _, err := DecodeCheckpoint(EncodeCheckpoint(cp)); err == nil || !strings.Contains(err.Error(), "checkpoint directory") {
		t.Fatalf("short directory Alive: got %v, want a directory length error", err)
	}
}

// TestCheckpointEncodedLenMatchesEncoding pins the computed checkpoint
// size to the encoder's output on every model and fabric shape, healthy,
// after a kill wave and under each hostile profile, with and without the
// thermal model.
func TestCheckpointEncodedLenMatchesEncoding(t *testing.T) {
	profiles := append([]faults.Profile{{}, {Kind: faults.KindDeath, AtMs: 20, Nodes: 12}}, hostileProfiles...)
	for _, m := range ckptModels {
		for _, topo := range []string{"mesh", "torus", "cmesh"} {
			for i, prof := range profiles {
				cfg := DefaultConfig(m.factory, m.mapper, 3)
				cfg.Topology = topo
				if i == 0 {
					tp := thermal.DefaultParams()
					cfg.Thermal = &tp
				}
				p := New(cfg)
				if prof.Kind != "" {
					applySched(p, buildHostile(t, p, prof, 3))
				}
				for _, ms := range []float64{0, 45} {
					p.RunFor(sim.Ms(ms), nil)
					cp := p.Snapshot()
					if got, want := cp.EncodedLen(), len(EncodeCheckpoint(cp)); got != want {
						t.Fatalf("%s/%s/%q at %g ms: EncodedLen = %d, encoding is %d bytes",
							m.name, topo, prof.Kind, ms, got, want)
					}
				}
			}
		}
	}
}

// TestCheckpointCodecRejectsForeignRouterRecords: a checksum-valid cmesh
// checkpoint whose network records name mesh routers (0, 1, 2, …) instead
// of the cmesh hubs must fail to decode. Restore would panic on the first
// record that is not the target's router.
func TestCheckpointCodecRejectsForeignRouterRecords(t *testing.T) {
	cfg := DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)
	p := New(cfg)
	p.RunFor(sim.Ms(5), nil)
	cp := p.Snapshot()
	cp.topology = "cmesh"
	_, err := DecodeCheckpoint(EncodeCheckpoint(cp))
	if err == nil || !strings.Contains(err.Error(), "router record") {
		t.Fatalf("mesh records under a cmesh header: got %v, want a router record error", err)
	}
}
