package centurion

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
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
