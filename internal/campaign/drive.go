package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/artifact"
	"repro/internal/coord"
	"repro/internal/mobility"
	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// Job is the part of a campaign that differs between the CLIs: what
// the sweep is, how one shard of it populates the store and how its
// report renders. Drive owns the rest.
type Job interface {
	// Fingerprint identifies the sweep a -coord pool runs (see
	// coord.Config); Drive asks for it only with -coord.
	Fingerprint() (string, error)
	// Populate runs shard sh of the sweep into the store and returns
	// its digest line. Under -coord, cks is the pool's run-checkpoint
	// store and fingerprint the sweep's, so a re-leased shard resumes
	// past what an earlier attempt stored; a manual -shard passes nil.
	Populate(sh sweep.Shard, cks sweep.CheckpointStore, fingerprint string) (string, error)
	// Render prints the report to w. In a watch merge wait is set and
	// each row renders the moment the pool stores its scenarios.
	Render(wait *sweep.StoreWait, w io.Writer) error
}

// Drive runs a CLI campaign in the mode setup selects and prints what
// that mode prints: the -store-gc line or the -coord-status table on
// stdout and nothing else; otherwise newJob's report on stdout (a
// plain run or -merge-report) or its shard digests on stderr (-coord
// or -shard), then the store and mobility digest lines on stderr.
// newJob runs after the two exits, so their flags need no valid sweep.
// ctx ends a watch merge's wait for a pool no worker has initialised.
func Drive(ctx context.Context, setup Setup, stdout, stderr io.Writer, newJob func() (Job, error)) error {
	// The -coord-workers claim loops and a watch merge's pool watch
	// print progress lines while this goroutine prints its own.
	stderr = &lockedWriter{w: stderr}
	store := setup.Store
	// Design-time artifact tier: with a store attached, mobility tables
	// persist next to the results and warm runs load them instead of
	// recomputing. Counters start from zero for this run's digest.
	mobility.ResetStats()
	if store != nil {
		defer artifact.Install(store)()
	}
	if setup.StoreGC {
		line, err := resultstore.RunGC(store)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
		return nil
	}
	if setup.CoordStatus {
		// The pool's persisted constants are adopted, never initialised.
		c, err := coord.Open(coord.Config{Backend: setup.Coord.Backend,
			LeaseTTL: setup.Coord.LeaseTTL, Heartbeat: setup.Coord.Heartbeat})
		if err != nil {
			return err
		}
		st, err := c.Status()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, st.Render(c.Dir()))
		return nil
	}
	job, err := newJob()
	if err != nil {
		return err
	}
	if err := runMode(ctx, setup, job, stdout, stderr); err != nil {
		return err
	}
	if store != nil {
		fmt.Fprintln(stderr, store.SummaryLine())
	}
	// Keep the format stable: the CI artifact-reuse gate greps it.
	if line := mobility.DigestLine(); line != "" {
		fmt.Fprintln(stderr, line)
	}
	return nil
}

// runMode runs the one mode setup selects.
func runMode(ctx context.Context, setup Setup, job Job, stdout, stderr io.Writer) error {
	if setup.Coord == nil {
		if setup.HasShard {
			line, err := job.Populate(setup.Shard, nil, "")
			if err != nil {
				return err
			}
			fmt.Fprintln(stderr, line)
			return nil
		}
		return job.Render(nil, stdout)
	}
	fingerprint, err := job.Fingerprint()
	if err != nil {
		return err
	}
	pool := setup.Coord
	cfg := coord.Config{Backend: pool.Backend, Shards: pool.Shards,
		LeaseTTL: pool.LeaseTTL, Heartbeat: pool.Heartbeat, Fingerprint: fingerprint}
	cks := coord.NewCheckpointStore(pool.Backend)
	if setup.Merge {
		return mergeReport(ctx, cfg, setup.Watch, stderr, cks, job.Render, stdout)
	}
	c, err := coord.Open(cfg)
	if errors.Is(err, coord.ErrUninitialised) {
		return fmt.Errorf("%w (pass -coord-shards N to initialise the pool)", err)
	}
	if err != nil {
		return err
	}
	stats, err := c.RunWorkers(pool.Workers, func(r coord.ShardRun) error {
		line, err := job.Populate(sweep.Shard{Index: r.Shard, Count: r.Count}, cks, fingerprint)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "coord worker %s: %s (attempt %d)\n", c.Owner(), line, r.Attempt)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, stats.Summary(c.Shards()))
	return nil
}

// mergeReport renders a report from the store of the pool cfg names,
// the one merge sequence of the CLIs and the server. Without watch a
// pool that has not drained is refused with its tally. With watch the
// pool may not exist yet (ctx ends the wait for it), progress lines go
// to progress, rows render as the pool stores their scenarios, and the
// merge returns once the pool drains or errors if it dies.
//
// With cks set a watch merge is resumable: it checkpoints the byte
// offset it has printed, a rerun after a kill suppresses exactly that
// prefix of its (deterministic) render, so the partial and the resumed
// output reassemble the plain report, and a completed merge resets the
// offset so a deliberate re-render prints in full.
func mergeReport(ctx context.Context, cfg coord.Config, watch bool, progress io.Writer,
	cks sweep.CheckpointStore, render func(*sweep.StoreWait, io.Writer) error, w io.Writer) error {
	_, pw, poll, err := coord.MergeGateContext(ctx, cfg, watch, progress)
	if err != nil {
		return err
	}
	if pw == nil {
		return render(nil, w)
	}
	defer pw.Stop()
	if cks != nil {
		resume := LoadMergeOffset(cks, cfg.Fingerprint)
		if resume > 0 {
			fmt.Fprintf(progress, "merge checkpoint: resuming at byte offset %d\n", resume)
		}
		w = &CheckpointedWriter{W: w, Resume: resume,
			Save: func(total int64) { SaveMergeOffset(cks, cfg.Fingerprint, total) }}
	}
	if err := render(&sweep.StoreWait{Poll: poll, Done: pw.Done}, w); err != nil {
		return err
	}
	// Block until the pool drains, not merely until the report is
	// complete: the last done records can trail the store writes the
	// report consumed, and a worker that dies right at the end should
	// still be reported.
	if _, err := pw.Wait(); err != nil {
		return err
	}
	if cks != nil {
		SaveMergeOffset(cks, cfg.Fingerprint, 0)
	}
	return nil
}

// lockedWriter serializes writes to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
