package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"centurion/internal/centurion"
	"centurion/internal/dispatch"
	"centurion/internal/experiments"
)

// Executor runs one canonicalized spec's batch. The engine's workers call
// it for every job that missed the caches; plugging a different Executor is
// how local in-process execution and remote leased workers coexist behind
// one job engine.
type Executor func(ctx context.Context, spec RunSpec, progress func(Sample)) (*RunResult, error)

// ResultStore is the durable content-addressed backend the engine layers
// under its LRU: canonical spec key → encoded RunResult. Implemented by
// internal/store; a minimal interface here keeps the engine testable with
// fakes and open to external backends.
type ResultStore interface {
	Get(key string) (val []byte, ok bool, err error)
	Put(key string, val []byte) error
}

// dispatchEnvelope is the leased-job payload: the canonical spec plus the
// coordinator's view of the warm-start prefix key for the batch's first run.
// The key is purely advisory — the worker derives its own key from the spec
// and warm-starts regardless — but shipping the coordinator's view lets the
// worker detect canonicalization skew between the two binaries, which would
// otherwise silently split the warm caches. A payload without a spec is
// rejected.
type dispatchEnvelope struct {
	Spec       json.RawMessage `json:"spec"`
	WarmPrefix string          `json:"warm_prefix,omitempty"`
}

// warmPrefixSkew counts leased jobs whose advisory prefix key disagreed with
// the key this worker derived from the same spec. Nonzero means coordinator
// and worker canonicalize specs differently (version skew) and their warm
// caches are keyed apart; /healthz surfaces it via WarmPrefixSkew.
var warmPrefixSkew atomic.Uint64

// WarmPrefixSkew reports how many leased jobs carried a warm-prefix key that
// did not match the worker's own derivation.
func WarmPrefixSkew() uint64 { return warmPrefixSkew.Load() }

// NewDispatchExecutor returns the routing Executor: jobs go to remote
// leased workers through the coordinator when any are alive, and fall back
// to in-process execution when dispatch cannot help (no workers registered,
// every lease attempt lost, coordinator shutting down). A serve-only
// deployment therefore behaves exactly like the pre-dispatch engine, while
// attaching `centurion worker` daemons scales the same queue horizontally.
func NewDispatchExecutor(coord *dispatch.Coordinator) Executor {
	return func(ctx context.Context, spec RunSpec, progress func(Sample)) (*RunResult, error) {
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("server: encoding spec for dispatch: %w", err)
		}
		env := dispatchEnvelope{Spec: specJSON}
		env.WarmPrefix, _ = experiments.WarmPrefixKey(spec.toExperiment(0))
		payload, err := json.Marshal(env)
		if err != nil {
			return nil, fmt.Errorf("server: encoding dispatch envelope: %w", err)
		}
		res, err := coord.Execute(ctx, spec.CanonicalKey(), payload, func(b []byte) {
			if progress == nil || len(b) == 0 {
				return
			}
			var samples []Sample
			if json.Unmarshal(b, &samples) == nil {
				for _, s := range samples {
					progress(s)
				}
			}
		})
		switch {
		case err == nil:
			var rr RunResult
			if uerr := json.Unmarshal(res, &rr); uerr != nil {
				return nil, fmt.Errorf("server: decoding remote result: %w", uerr)
			}
			return &rr, nil
		case errors.Is(err, dispatch.ErrNoWorkers),
			errors.Is(err, dispatch.ErrAttemptsExhausted),
			errors.Is(err, dispatch.ErrClosed):
			return Execute(ctx, spec, progress)
		default:
			var re *dispatch.RemoteError
			if errors.As(err, &re) {
				// The spec ran remotely and failed deterministically;
				// retrying locally would fail identically.
				return nil, errors.New(re.Msg)
			}
			return nil, err
		}
	}
}

// progressFlushAt is how many samples a worker batches per progress post: a
// 1000-window run becomes ~16 round trips instead of 1000.
const progressFlushAt = 64

// jobCheckpoint is the wire form of a dispatch job's mid-batch checkpoint:
// which run of the batch is in flight, the summaries of the runs already
// completed, run 0's series, and the in-run resume state with the platform
// encoded as CENCKPT1. The checkpoint's progress stamp (the tick the
// coordinator fences forward motion with) is run*windows + win.
type jobCheckpoint struct {
	Run       int                   `json:"run"`
	Runs      []RunSummary          `json:"runs,omitempty"`
	Series    *Series               `json:"series,omitempty"`
	Win       int                   `json:"win"`
	Thr       []float64             `json:"thr,omitempty"`
	Act       []float64             `json:"act,omitempty"`
	Sw        []float64             `json:"sw,omitempty"`
	WaveSnaps []experiments.NetSnap `json:"wave_snaps,omitempty"`
	Platform  []byte                `json:"platform,omitempty"` // CENCKPT1
}

// parseDispatchPayload decodes a leased envelope and accounts warm-prefix
// skew.
func parseDispatchPayload(payload []byte) (RunSpec, error) {
	var env dispatchEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return RunSpec{}, fmt.Errorf("dispatch payload: %w", err)
	}
	if len(env.Spec) == 0 {
		return RunSpec{}, errors.New("dispatch payload has no spec")
	}
	spec, err := ParseSpec(env.Spec)
	if err != nil {
		return RunSpec{}, err
	}
	if env.WarmPrefix != "" {
		if mine, ok := experiments.WarmPrefixKey(spec.toExperiment(0)); ok && mine != env.WarmPrefix {
			warmPrefixSkew.Add(1)
		}
	}
	return spec, nil
}

// sampleBatcher groups per-window samples into progress posts.
type sampleBatcher struct {
	buf  []Sample
	post func(samples []byte)
}

func (b *sampleBatcher) add(s Sample) {
	b.buf = append(b.buf, s)
	if len(b.buf) >= progressFlushAt {
		b.flush()
	}
}

func (b *sampleBatcher) flush() {
	if len(b.buf) == 0 || b.post == nil {
		return
	}
	if raw, err := json.Marshal(b.buf); err == nil {
		b.post(raw)
	}
	b.buf = b.buf[:0]
}

// DispatchExecute is the worker daemon's dispatch.ExecuteFunc: decode a
// leased envelope payload, execute the batch through the same path the
// local engine uses, stream sample batches back, and return the encoded
// result.
func DispatchExecute(ctx context.Context, key string, payload []byte, post func(samples []byte)) (result []byte, errMsg string) {
	spec, err := parseDispatchPayload(payload)
	if err != nil {
		return nil, err.Error()
	}
	batch := sampleBatcher{post: post}
	res, err := Execute(ctx, spec, batch.add)
	batch.flush()
	if err != nil {
		return nil, err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err.Error()
	}
	return b, ""
}

// DispatchExecuteResumable is DispatchExecute under the checkpoint-resume
// protocol: every checkpointEveryMs of simulated time the in-flight run's
// state is committed to the coordinator, and a leased job that carries a
// prior attempt's checkpoint picks the batch up there — completed runs'
// summaries are reused and the interrupted run resumes mid-flight, so a
// kill costs at most one checkpoint interval of re-execution. A checkpoint
// that fails to decode is discarded (the batch restarts from scratch, which
// is always correct), and commit delivery failures are tolerated — only a
// fencing rejection stops the attempt, via the job ctx.
func DispatchExecuteResumable(checkpointEveryMs int) dispatch.ExecuteResumableFunc {
	if checkpointEveryMs <= 0 {
		checkpointEveryMs = 100
	}
	return func(ctx context.Context, job dispatch.ResumableJob) (result []byte, errMsg string) {
		spec, err := parseDispatchPayload(job.Payload)
		if err != nil {
			return nil, err.Error()
		}
		windows := spec.DurationMs / spec.WindowMs
		everyWins := checkpointEveryMs / spec.WindowMs
		if everyWins < 1 {
			everyWins = 1
		}

		res := &RunResult{Spec: spec, Key: spec.CanonicalKey()}
		startRun := 0
		var resume *experiments.RunCheckpoint
		if len(job.Checkpoint) > 0 {
			var jc jobCheckpoint
			if json.Unmarshal(job.Checkpoint, &jc) == nil && jc.Run <= spec.Runs && len(jc.Runs) == jc.Run {
				startRun = jc.Run
				res.Runs = jc.Runs
				res.Series = jc.Series
				if jc.Win > 0 && len(jc.Platform) > 0 {
					if cp, derr := centurion.DecodeCheckpoint(jc.Platform); derr == nil {
						resume = &experiments.RunCheckpoint{
							Win:       jc.Win,
							Thr:       jc.Thr,
							Act:       jc.Act,
							Sw:        jc.Sw,
							WaveSnaps: jc.WaveSnaps,
							Platform:  cp,
						}
					}
				}
			}
		}

		commit := func(run int, win int, jc jobCheckpoint) {
			b, merr := json.Marshal(jc)
			if merr != nil {
				return
			}
			tick := int64(run)*int64(windows) + int64(win)
			// Best-effort: a failed delivery only widens the re-execution
			// window of a later attempt.
			_ = job.Commit(ctx, tick, b)
		}

		batch := sampleBatcher{post: job.Progress}
		for run := startRun; run < spec.Runs; run++ {
			espec := spec.toExperiment(run)
			r := run
			onWindow := func(w int, tp, active, switches float64) {
				batch.add(Sample{
					Run:         r,
					TimeMs:      float64(w) * float64(spec.WindowMs),
					Throughput:  tp,
					NodesActive: active,
					Switches:    switches,
				})
			}
			hook := &experiments.CheckpointHook{
				EveryWins: everyWins,
				Fn: func(win int, cp *experiments.RunCheckpoint) error {
					commit(r, win, jobCheckpoint{
						Run:       r,
						Runs:      res.Runs,
						Series:    res.Series,
						Win:       cp.Win,
						Thr:       cp.Thr,
						Act:       cp.Act,
						Sw:        cp.Sw,
						WaveSnaps: cp.WaveSnaps,
						Platform:  centurion.EncodeCheckpoint(cp.Platform),
					})
					// Lease loss surfaces as ctx cancellation (the commit's
					// fencing rejection cancels the job ctx); everything else
					// is best-effort.
					return ctx.Err()
				},
			}
			rr, err := experiments.RunResumable(ctx, espec, onWindow, resume, hook)
			resume = nil
			if err != nil {
				batch.flush()
				return nil, fmt.Sprintf("run %d (seed %d): %v", run, espec.Seed, err)
			}
			res.Runs = append(res.Runs, runSummaryOf(&rr))
			if run == 0 {
				res.Series = &Series{
					WindowMs:    rr.Throughput.WindowMs,
					Throughput:  rr.Throughput.Values,
					NodesActive: rr.NodesActive.Values,
					Switches:    rr.Switches.Values,
				}
			}
			if run+1 < spec.Runs {
				// Run boundary: the next run starts fresh (no platform), but
				// the completed summaries are safe.
				commit(run+1, 0, jobCheckpoint{Run: run + 1, Runs: res.Runs, Series: res.Series})
			}
		}
		batch.flush()
		res.Aggregate = aggregate(res.Runs)
		if spec.Runs > 1 {
			res.Series = nil
		}
		b, merr := json.Marshal(res)
		if merr != nil {
			return nil, merr.Error()
		}
		return b, ""
	}
}
