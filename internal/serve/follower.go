package serve

// The follower half of WAL-shipping replication: a warm standby that
// tails its primary's /replicate endpoint, applies the shipped frames
// through csr.ApplyReplicated at their original sequence numbers (so its
// own WAL, torn-tail truncation, and crash-atomic merges work
// unchanged), and serves read queries from epoch-pinned snapshots the
// whole time. /mutate is rejected with a structured read_only error
// until promotion — POST /admin/promote, or automatically after
// PromoteOnDisconnect without primary contact.
//
// Failure model, matching the rest of the stack:
//
//   - Lost primary: exponential backoff from Poll up to ~2s, forever (or
//     until the promote grace expires). Catch-up after a reconnect is
//     just more polling — the cursor never moved.
//   - Sequence gap (the primary merged past our cursor, or the stream is
//     inconsistent): sticky and terminal. The follower keeps serving its
//     frozen state but reports replica_gap unready; the operator must
//     re-seed it from a fresh copy of the primary.
//   - Follower crash: nothing to do here — its own WAL replays the
//     cursor on reopen, and duplicate frames from the overlap are
//     skipped by sequence identity.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/wal"
)

// FollowerOptions configures a replication follower.
type FollowerOptions struct {
	// Primary is the base URL of the primary mlvcd, e.g. "http://host:8080".
	Primary string
	// Poll is the idle poll interval once caught up (and the initial
	// reconnect backoff). Defaults to 50ms.
	Poll time.Duration
	// BatchMax caps frames per fetch. Defaults to 4096.
	BatchMax int
	// LagThreshold is the replication lag (frames) past which /readyz
	// reports unready. Defaults to 256; negative means "any lag".
	LagThreshold int64
	// PromoteOnDisconnect auto-promotes after this long without primary
	// contact. 0 disables auto-promotion (operator-only failover).
	PromoteOnDisconnect time.Duration
}

// replicateClient fetches frames from the primary; its timeout bounds one
// /replicate round trip.
var replicateClient = &http.Client{Timeout: 30 * time.Second}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Poll <= 0 {
		o.Poll = 50 * time.Millisecond
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 4096
	}
	if o.BatchMax > maxReplicateBatch {
		o.BatchMax = maxReplicateBatch
	}
	if o.LagThreshold == 0 {
		o.LagThreshold = 256
	}
	return o
}

// followerStatus is the /stats "replica" section and the readiness
// probe's diagnostic payload.
type followerStatus struct {
	Role           string `json:"role"` // "follower" or "promoted"
	Primary        string `json:"primary"`
	AppliedSeq     uint64 `json:"applied_seq"`
	PrimaryLastSeq uint64 `json:"primary_last_seq"`
	LagFrames      uint64 `json:"lag_frames"`
	Connected      bool   `json:"connected"`
	FramesApplied  int64  `json:"frames_applied"`
	Fetches        int64  `json:"fetches"`
	Reconnects     int64  `json:"reconnects"`
	GapError       string `json:"gap_error,omitempty"`
	PromoteReason  string `json:"promote_reason,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// Follower tails a primary and applies its WAL stream. Create with
// Server.StartFollower (which also flips the server read-only); Promote
// or Stop ends the tailing.
type Follower struct {
	s    *Server
	opts FollowerOptions

	applied     atomic.Uint64 // cursor: highest seq applied locally
	primaryLast atomic.Uint64 // highest durable seq seen on the primary
	connected   atomic.Bool   // last fetch reached the primary
	everSynced  atomic.Bool   // at least one successful fetch
	promoted    atomic.Bool
	lastContact atomic.Int64 // UnixNano of the last successful fetch

	framesApplied atomic.Int64
	fetches       atomic.Int64
	reconnects    atomic.Int64

	mu            sync.Mutex
	gapErr        error
	lastErr       string
	promoteReason string

	stop     chan struct{}
	done     chan struct{}
	started  atomic.Bool
	stopOnce sync.Once
}

// StartFollower puts the server in follower mode — read-only, tailing
// primary — and starts the apply loop. One follower per server.
func (s *Server) StartFollower(opts FollowerOptions) (*Follower, error) {
	f, err := s.newFollower(opts)
	if err != nil {
		return nil, err
	}
	f.start()
	return f, nil
}

func (s *Server) newFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Primary == "" {
		return nil, fmt.Errorf("serve: FollowerOptions.Primary is required")
	}
	f := &Follower{
		s:    s,
		opts: opts.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	cur := s.g.AppliedSeq()
	f.applied.Store(cur)
	obsv.Live().ReplicaAppliedSeq.Set(int64(cur))
	if !s.fol.CompareAndSwap(nil, f) {
		return nil, fmt.Errorf("serve: server already has a follower")
	}
	s.readOnly.Store(true)
	return f, nil
}

func (f *Follower) start() {
	if f.started.Swap(true) {
		return
	}
	go f.run()
}

// Stop ends the apply loop without promoting (drain path). Idempotent.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	if f.started.Load() {
		<-f.done
	} else {
		close(f.done)
	}
}

// Promote flips this node writable: the apply loop stops, /mutate opens,
// sequence numbering continues from the applied cursor. Returns whether
// this call performed the promotion (false: already promoted).
func (f *Follower) Promote(reason string) bool {
	if f.promoted.Swap(true) {
		return false
	}
	f.mu.Lock()
	f.promoteReason = reason
	f.mu.Unlock()
	f.s.readOnly.Store(false)
	obsv.Live().Promotions.Add(1)
	f.stopOnce.Do(func() { close(f.stop) })
	return true
}

// Promoted reports whether this node has been promoted to primary.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// lag returns the current replication lag in frames.
func (f *Follower) lag() uint64 {
	a, p := f.applied.Load(), f.primaryLast.Load()
	if p <= a {
		return 0
	}
	return p - a
}

// ready implements the lag-thresholded readiness contract: a promoted
// node is ready (breaker rules take over); an unpromoted follower is
// ready once it has synced at least once, has no sticky gap, and trails
// by at most LagThreshold frames.
func (f *Follower) ready() (ok bool, reason string) {
	if f.promoted.Load() {
		return true, ""
	}
	f.mu.Lock()
	gap := f.gapErr
	f.mu.Unlock()
	if gap != nil {
		return false, "replica_gap"
	}
	if !f.everSynced.Load() {
		return false, "replica_connecting"
	}
	thr := f.opts.LagThreshold
	if thr < 0 {
		thr = 0
	}
	if f.lag() > uint64(thr) {
		return false, "replica_lag"
	}
	return true, ""
}

func (f *Follower) status() followerStatus {
	st := followerStatus{
		Role:           "follower",
		Primary:        f.opts.Primary,
		AppliedSeq:     f.applied.Load(),
		PrimaryLastSeq: f.primaryLast.Load(),
		LagFrames:      f.lag(),
		Connected:      f.connected.Load(),
		FramesApplied:  f.framesApplied.Load(),
		Fetches:        f.fetches.Load(),
		Reconnects:     f.reconnects.Load(),
	}
	if f.promoted.Load() {
		st.Role = "promoted"
	}
	f.mu.Lock()
	if f.gapErr != nil {
		st.GapError = f.gapErr.Error()
	}
	st.PromoteReason = f.promoteReason
	st.LastError = f.lastErr
	f.mu.Unlock()
	return st
}

func (f *Follower) setGap(err error) {
	f.mu.Lock()
	if f.gapErr == nil {
		f.gapErr = err
	}
	f.mu.Unlock()
}

func (f *Follower) noteErr(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// run is the apply loop: fetch, apply, repeat — tight while behind, Poll
// apart when caught up, backing off exponentially while the primary is
// unreachable. A sticky gap ends the loop (the node needs re-seeding); a
// promotion ends it writable.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.Poll
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		n, err := f.pollOnce()
		if f.promoted.Load() {
			return
		}
		var wait time.Duration
		switch {
		case err != nil && errors.Is(err, wal.ErrSeqGap):
			return // sticky; readiness reports replica_gap
		case err != nil:
			wait = backoff
			backoff *= 2
			if max := 2 * time.Second; backoff > max {
				backoff = max
			}
			if g := f.opts.PromoteOnDisconnect; g > 0 && !f.connected.Load() {
				lc := f.lastContact.Load()
				if lc == 0 {
					// Never reached the primary; start the grace clock at
					// the first failure rather than promoting a node that
					// may be pointed at a typo.
					f.lastContact.Store(time.Now().UnixNano())
				} else if time.Since(time.Unix(0, lc)) > g {
					f.Promote(fmt.Sprintf("primary unreachable for %s (promote-on-disconnect %s)", time.Since(time.Unix(0, lc)).Round(time.Millisecond), g))
					return
				}
			}
		case n > 0:
			backoff = f.opts.Poll
			continue // still catching up: fetch again immediately
		default:
			backoff = f.opts.Poll
			wait = f.opts.Poll
		}
		select {
		case <-f.stop:
			return
		case <-time.After(wait):
		}
	}
}

// pollOnce fetches one batch from the primary and applies it. Returns
// how many frames were newly applied.
func (f *Follower) pollOnce() (int, error) {
	f.fetches.Add(1)
	from := f.applied.Load() + 1
	url := fmt.Sprintf("%s/replicate?from=%d&max=%d", strings.TrimRight(f.opts.Primary, "/"), from, f.opts.BatchMax)
	resp, err := replicateClient.Get(url)
	if err != nil {
		f.noteDisconnect(err)
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		gerr := fmt.Errorf("%w: primary: %s", wal.ErrSeqGap, strings.TrimSpace(string(msg)))
		f.setGap(gerr)
		f.noteErr(gerr)
		return 0, gerr
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("replicate: primary returned %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		f.noteDisconnect(err)
		return 0, err
	}

	// Stream-decode the body: a connection cut mid-frame still yields the
	// clean decoded prefix, which is safe to apply — the next poll simply
	// re-requests from the new cursor.
	dec := wal.NewTailDecoder(from)
	var recs []wal.Record
	buf := make([]byte, 32*1024)
	var readErr error
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			batch, derr := dec.Feed(buf[:n])
			recs = append(recs, batch...)
			if derr != nil {
				if errors.Is(derr, wal.ErrSeqGap) {
					f.setGap(derr)
					f.noteErr(derr)
					return 0, derr
				}
				// Mid-stream corruption: drop the suffix, keep the valid
				// prefix, and treat the connection as torn.
				readErr = derr
				break
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			readErr = rerr
			break
		}
	}

	applied := 0
	if len(recs) > 0 {
		applied, err = f.s.g.ApplyReplicated(recs, 0)
		if err != nil {
			if errors.Is(err, wal.ErrSeqGap) {
				f.setGap(err)
			}
			f.noteErr(err)
			return applied, err
		}
	}

	// Bookkeeping: the fetch reached the primary even if the body was cut.
	f.connected.Store(true)
	f.everSynced.Store(true)
	f.lastContact.Store(time.Now().UnixNano())
	cur := f.s.g.AppliedSeq()
	f.applied.Store(cur)
	if last, perr := strconv.ParseUint(resp.Header.Get("X-Mlvc-Last-Seq"), 10, 64); perr == nil {
		for {
			old := f.primaryLast.Load()
			if last <= old || f.primaryLast.CompareAndSwap(old, last) {
				break
			}
		}
	}
	f.framesApplied.Add(int64(applied))
	live := obsv.Live()
	live.ReplicaAppliedSeq.Set(int64(cur))
	live.ReplicaLagFrames.Set(int64(f.lag()))
	if readErr != nil {
		f.noteErr(readErr)
		return applied, readErr
	}
	f.mu.Lock()
	f.lastErr = ""
	f.mu.Unlock()
	return applied, nil
}

func (f *Follower) noteDisconnect(err error) {
	if f.connected.Swap(false) {
		f.reconnects.Add(1)
	}
	f.noteErr(err)
}
