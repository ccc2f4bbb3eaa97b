package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"centurion/internal/aim"
	"centurion/internal/centurion"
	"centurion/internal/dispatch"
	"centurion/internal/experiments"
	"centurion/internal/taskgraph"
)

// TestDispatchEnvelopeAndLegacyPayload pins the leased-job wire format: the
// coordinator ships {"spec": ..., "warm_prefix": ...} envelopes, workers
// execute them, and the pre-envelope bare-spec payload is rejected.
func TestDispatchEnvelopeAndLegacyPayload(t *testing.T) {
	ctx := context.Background()
	spec, err := ParseSpec([]byte(fastSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	if res, errMsg := DispatchExecute(ctx, spec.CanonicalKey(), specJSON, nil); errMsg == "" || res != nil {
		t.Fatalf("legacy bare-spec payload was accepted (err %q)", errMsg)
	}

	key, ok := experiments.WarmPrefixKey(spec.toExperiment(0))
	if !ok || key == "" {
		t.Fatal("expected a warm-prefix key for a plain fault-free spec")
	}
	env, err := json.Marshal(dispatchEnvelope{Spec: specJSON, WarmPrefix: key})
	if err != nil {
		t.Fatal(err)
	}
	skewBefore := WarmPrefixSkew()
	enveloped, errMsg := DispatchExecute(ctx, spec.CanonicalKey(), env, nil)
	if errMsg != "" {
		t.Fatalf("envelope payload failed: %s", errMsg)
	}
	if got := WarmPrefixSkew(); got != skewBefore {
		t.Fatalf("matching warm-prefix key counted as skew (%d -> %d)", skewBefore, got)
	}

	// A key that disagrees with the worker's own derivation is counted as
	// canonicalization skew but never rejects the job.
	badEnv, err := json.Marshal(dispatchEnvelope{Spec: specJSON, WarmPrefix: "deadbeef"})
	if err != nil {
		t.Fatal(err)
	}
	skewed, errMsg := DispatchExecute(ctx, spec.CanonicalKey(), badEnv, nil)
	if errMsg != "" {
		t.Fatalf("skewed envelope failed: %s", errMsg)
	}
	if !bytes.Equal(enveloped, skewed) {
		t.Fatal("skewed envelope changed the result")
	}
	if got := WarmPrefixSkew(); got != skewBefore+1 {
		t.Fatalf("warm-prefix skew counter = %d, want %d", got, skewBefore+1)
	}
}

// TestDispatchExecutorShipsEnvelope runs a leased worker that captures its
// raw payload, submits a job through the real coordinator path, and asserts
// the wire bytes are the envelope: a reparseable canonical spec plus the
// batch's warm-prefix key.
func TestDispatchExecutorShipsEnvelope(t *testing.T) {
	s := New(Options{
		Workers:    2,
		QueueBound: 16,
		CacheSize:  16,
		Dispatch: dispatch.Config{
			LeaseTTL: time.Second,
			PollWait: 50 * time.Millisecond,
		},
	})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	payloads := make(chan []byte, 4)
	capture := func(ctx context.Context, key string, payload []byte, post func([]byte)) ([]byte, string) {
		payloads <- append([]byte(nil), payload...)
		return DispatchExecute(ctx, key, payload, post)
	}
	defer startTestWorker(t, ts.URL, "capture", nil, capture)()
	waitForWorkers(t, s.Coordinator(), 1)

	if code, js := postRun(t, ts, fastSpecJSON, true); code != 200 || js.State != JobDone {
		t.Fatalf("submit: code %d, state %s (%s)", code, js.State, js.Error)
	}
	var payload []byte
	select {
	case payload = <-payloads:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never leased the job")
	}

	var env dispatchEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatalf("payload is not an envelope: %v", err)
	}
	if len(env.Spec) == 0 {
		t.Fatal("envelope carries no spec")
	}
	spec, err := ParseSpec(env.Spec)
	if err != nil {
		t.Fatalf("enveloped spec does not reparse: %v", err)
	}
	want, ok := experiments.WarmPrefixKey(spec.toExperiment(0))
	if !ok {
		t.Fatal("expected the spec to be warm-startable")
	}
	if env.WarmPrefix != want {
		t.Fatalf("envelope warm-prefix = %q, want %q", env.WarmPrefix, want)
	}
}

// TestResumableDiscardsOldCheckpointVersion: a resumed job whose platform
// checkpoint has an older CENCKPT1 version cannot restore it, so the
// interrupted run restarts from tick zero — and the result is identical to
// a run that was never interrupted.
func TestResumableDiscardsOldCheckpointVersion(t *testing.T) {
	ctx := context.Background()
	spec, err := ParseSpec([]byte(fastSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(dispatchEnvelope{Spec: specJSON})
	if err != nil {
		t.Fatal(err)
	}
	want, errMsg := DispatchExecute(ctx, spec.CanonicalKey(), payload, nil)
	if errMsg != "" {
		t.Fatalf("fresh run failed: %s", errMsg)
	}

	old := centurion.EncodeCheckpoint(centurion.New(centurion.DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1)).Snapshot())
	old[8], old[9] = 1, 0 // version 1, little-endian
	if _, err := centurion.DecodeCheckpoint(old); err == nil {
		t.Fatal("version-1 checkpoint decoded")
	}
	jc, err := json.Marshal(jobCheckpoint{Win: 5, Platform: old})
	if err != nil {
		t.Fatal(err)
	}
	got, errMsg := DispatchExecuteResumable(10)(ctx, dispatch.ResumableJob{
		Key:            spec.CanonicalKey(),
		Payload:        payload,
		Attempt:        2,
		Checkpoint:     jc,
		CheckpointTick: 5,
		Commit:         func(context.Context, int64, []byte) error { return nil },
	})
	if errMsg != "" {
		t.Fatalf("resume from a version-1 checkpoint failed: %s", errMsg)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resume from a version-1 checkpoint changed the result")
	}
}
