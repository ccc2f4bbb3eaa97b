package centurion

import (
	"encoding/binary"
	"strings"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// TestCheckpointCodecRejectsVersion1 pins the format bump: version 1 carried
// per-tile active sets and staging counters that the current layout no
// longer has, so a version-1 file must be refused by its header instead of
// being misread.
func TestCheckpointCodecRejectsVersion1(t *testing.T) {
	p := New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1))
	p.RunFor(sim.Ms(5), nil)
	data := EncodeCheckpoint(p.Snapshot())
	binary.LittleEndian.PutUint16(data[8:10], 1)
	_, err := DecodeCheckpoint(data)
	if err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version 1") {
		t.Fatalf("version-1 checkpoint: got %v, want an unsupported checkpoint version error", err)
	}
}
