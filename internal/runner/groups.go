package runner

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// GroupJob is one experiment cell of a fusable group. Key has Job.Key's
// cache semantics (cells are deduplicated and cached individually, so a
// fused cell still short-circuits a later per-cell submission and vice
// versa). Group names the execution group: cells of one MapGroups call
// that share a Group value — in the experiment drivers, cells that
// analyse the same (benchmark, budget) instruction stream — and miss the
// cache are executed together in a single fused run.
type GroupJob[T any] struct {
	// Key identifies the cell for deduplication (see Job.Key). Empty
	// keys are never cached.
	Key string
	// Group is the execution-group key. It must capture everything that
	// determines the shared input of the fused execution (for stream
	// analyses: the benchmark, budget, seed and batch size), and cells
	// with equal Group values must be executable in one call.
	Group string
	// Label is what progress events report; the Key (or Group) is used
	// when empty.
	Label string
}

func (j GroupJob[T]) label() string {
	switch {
	case j.Label != "":
		return j.Label
	case j.Key != "":
		return j.Key
	default:
		return j.Group
	}
}

// MapGroups resolves cells through the runner's cache exactly like Map —
// results return in job order, identical at any worker count — but
// executes the cache-missing cells group by group: all missing cells
// sharing a Group value are handed to exec in one call, holding one
// worker slot, so cells that can share one traversal of their input run
// fused instead of re-traversing it once per cell. exec must return one
// result per index of idx, in order; each result is cached under its
// cell's Key. Like Job.Run, exec must be a pure function of its cells'
// inputs and must not submit further work to the same Runner.
//
// Cached and in-flight cells are served exactly as in Map (JobCached
// events, CacheHits/Coalesced stats). Executed groups emit one
// JobStarted/JobDone pair labelled after their first cell, count one
// GroupRuns stat, and count every covered cell in Executed.
func MapGroups[T any](ctx context.Context, r *Runner, jobs []GroupJob[T],
	exec func(ctx context.Context, group string, idx []int) ([]T, error)) ([]T, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.submitted.Add(uint64(len(jobs)))
	mSubmitted.Add(uint64(len(jobs)))
	out := make([]T, len(jobs))
	errs := make([]error, len(jobs))

	// resolve records one group outcome: per-cell results or a shared
	// error, finalising the cache entries the group claimed (nil for
	// uncacheable cells). Entries resolved with a context error are
	// dropped from the cache before done closes, so waiters retry and a
	// later uncancelled call recomputes the cell (as in Runner.do).
	resolve := func(idx []int, entries []*entry, vals []T, err error) {
		if err != nil {
			cancel()
		}
		for j, i := range idx {
			if err != nil {
				errs[i] = err
			} else {
				out[i] = vals[j]
			}
			e := entries[j]
			if e == nil {
				continue
			}
			if err != nil {
				e.err = err
			} else {
				e.val = vals[j]
				r.tierPut(jobs[i].Key, vals[j])
			}
			if err != nil && isContextErr(err) {
				r.mu.Lock()
				delete(r.cache, jobs[i].Key)
				r.mu.Unlock()
			}
			close(e.done)
		}
	}

	// execGroup runs exec for the claimed cells on one worker slot.
	execGroup := func(idx []int, entries []*entry) {
		label := jobs[idx[0]].label()
		if len(idx) > 1 {
			label = fmt.Sprintf("%s (+%d fused)", label, len(idx)-1)
		}
		group := jobs[idx[0]].Group
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			resolve(idx, entries, nil, ctx.Err())
			return
		}
		defer func() { <-r.sem }()
		if err := ctx.Err(); err != nil {
			resolve(idx, entries, nil, err)
			return
		}
		r.emit(Event{Kind: JobStarted, Key: group, Label: label, Completed: r.completed.Load()})
		start := time.Now()
		vals, err := exec(ctx, group, idx)
		elapsed := time.Since(start)
		r.groupRuns.Add(1)
		mGroupRuns.Inc()
		mJobSeconds.Observe(elapsed.Seconds())
		if err == nil && len(vals) != len(idx) {
			err = fmt.Errorf("runner: group %q returned %d results for %d cells", group, len(vals), len(idx))
		}
		if err != nil {
			r.failures.Add(1)
			mFailures.Inc()
			r.emit(Event{Kind: JobFailed, Key: group, Label: label, Err: err, Elapsed: elapsed, Completed: r.completed.Load()})
			resolve(idx, entries, nil, err)
			return
		}
		r.executed.Add(uint64(len(idx)))
		mExecuted.Add(uint64(len(idx)))
		r.emit(Event{Kind: JobDone, Key: group, Label: label, Elapsed: elapsed, Completed: r.completed.Add(uint64(len(idx)))})
		resolve(idx, entries, vals, nil)
	}

	// serve finishes cell i from its resolved entry e, counted as a
	// cache hit (e was resolved when this call found it) or a coalesced
	// wait (this call waited for it).
	serve := func(i int, e *entry, hit bool) {
		job := jobs[i]
		if hit {
			r.cacheHits.Add(1)
			mCacheHits.Inc()
		} else {
			r.coalesced.Add(1)
			mCoalesced.Inc()
		}
		if e.err != nil {
			r.emit(Event{Kind: JobFailed, Key: job.Key, Label: job.label(), Err: e.err, Completed: r.completed.Load()})
			errs[i] = e.err
			cancel()
			return
		}
		vv, ok := e.val.(T)
		if !ok {
			errs[i] = fmt.Errorf("runner: cached value for %q is %T, not the job's result type", job.Key, e.val)
			cancel()
			return
		}
		r.emit(Event{Kind: JobCached, Key: job.Key, Label: job.label(), Completed: r.completed.Add(1)})
		out[i] = vv
	}

	// waitCell resolves one cell whose key was already claimed, and not
	// yet resolved, when this call arrived (Runner.do's waiter branch);
	// if the claim it waited on was cancelled, it retries — claiming and
	// running the cell as a singleton group if the entry is gone.
	waitCell := func(i int) {
		job := jobs[i]
		for {
			r.mu.Lock()
			e, ok := r.cache[job.Key]
			if !ok {
				e = &entry{done: make(chan struct{})}
				r.cache[job.Key] = e
				r.mu.Unlock()
				execGroup([]int{i}, []*entry{e})
				return
			}
			r.mu.Unlock()
			resolvedAlready := resolved(e)
			select {
			case <-e.done:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			if e.err != nil && isContextErr(e.err) {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				continue
			}
			serve(i, e, resolvedAlready)
			return
		}
	}

	// Claim pass: decide, in job order, which cells this call executes
	// (grouped) and which wait on an existing claim. groups preserves
	// first-appearance order so the schedule is deterministic.
	var (
		groupOrder   []string
		groupIdx     = map[string][]int{}
		groupEntries = map[string][]*entry{}
		waiters      []int
	)
	for i := range jobs {
		job := jobs[i]
		var e *entry
		if job.Key != "" {
			r.mu.Lock()
			if e, ok := r.cache[job.Key]; ok {
				r.mu.Unlock()
				// An entry already resolved (and not by a cancellation,
				// which waitCell retries) is served here, in job order;
				// only cells still in flight get a waiting goroutine.
				if resolved(e) && !(e.err != nil && isContextErr(e.err)) {
					serve(i, e, true)
				} else {
					waiters = append(waiters, i)
				}
				continue
			}
			e = &entry{done: make(chan struct{})}
			r.cache[job.Key] = e
			r.mu.Unlock()
			// The persistent tier gets one look before the cell joins a
			// fused group: a disk hit resolves the claim immediately and
			// keeps the cell out of this call's traversals.
			if v, hit := r.tierGet(job.Key); hit {
				if vv, ok := v.(T); ok {
					e.val = v
					close(e.done)
					out[i] = vv
					r.diskHits.Add(1)
					mDiskHits.Inc()
					r.emit(Event{Kind: JobCached, Key: job.Key, Label: job.label(), Completed: r.completed.Add(1)})
					continue
				}
				// Wrong type for this job's key: fall through and
				// recompute (the write-back overwrites the stale entry).
				r.tierErrors.Add(1)
				mTierErrors.Inc()
			}
		}
		if _, ok := groupIdx[job.Group]; !ok {
			groupOrder = append(groupOrder, job.Group)
		}
		groupIdx[job.Group] = append(groupIdx[job.Group], i)
		groupEntries[job.Group] = append(groupEntries[job.Group], e)
	}

	var wg sync.WaitGroup
	for _, g := range groupOrder {
		idx, entries := groupIdx[g], groupEntries[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			execGroup(idx, entries)
		}()
	}
	for _, i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			waitCell(i)
		}()
	}
	wg.Wait()
	return collectErrs(out, errs)
}

// resolved reports whether e's done channel is closed, without waiting.
func resolved(e *entry) bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// collectErrs implements Map's error policy: report the job that
// actually failed, not the cancellation fallout of its siblings, falling
// back to the first (context) error.
func collectErrs[T any](out []T, errs []error) ([]T, error) {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !isContextErr(err) {
			return nil, err
		}
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}
