package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cinnamon/internal/ckks"
)

// ErrUnknownSession marks a session id that does not exist (never created,
// closed, or TTL-evicted). The HTTP layer maps it to 404.
var ErrUnknownSession = errors.New("serve: unknown session")

// session is one encrypted conversation: the server holds the ciphertext
// state between steps so a client can iterate a program indefinitely
// without shipping intermediate results back and forth. mu serializes
// steps (state transitions are inherently sequential); last is the
// touch-time in unix nanos, written atomically so the TTL sweeper never
// races a step.
type session struct {
	id      string
	tenant  string
	program string

	mu    sync.Mutex
	state *ckks.Ciphertext
	steps int

	last atomic.Int64

	// lastCP is the most recent checkpoint handed to the log (create,
	// step, or replay). Compaction snapshots it instead of taking mu —
	// a step holds mu while it waits for the append lock, so compaction
	// must never hold the append lock while waiting for mu.
	lastCP atomic.Pointer[sessionCheckpoint]
}

func (s *session) touch(now time.Time) { s.last.Store(now.UnixNano()) }

// checkpoint captures the loggable view of the session. Callers hold s.mu
// (steps and state are guarded by it); the returned state pointer remains
// valid after unlock because steps install fresh ciphertexts.
func (s *session) checkpoint() sessionCheckpoint {
	return sessionCheckpoint{
		id:      s.id,
		tenant:  s.tenant,
		program: s.program,
		steps:   s.steps,
		touch:   s.last.Load(),
		state:   s.state,
	}
}

// SessionInfo is the JSON view of one session.
type SessionInfo struct {
	ID      string `json:"id"`
	Program string `json:"program"`
	Tenant  string `json:"tenant"`
	Steps   int    `json:"steps"`
	// StateLevel is the held ciphertext's level, -1 before the first step.
	StateLevel int `json:"state_level"`
}

func (s *session) info() SessionInfo {
	in := SessionInfo{ID: s.id, Program: s.program, Tenant: s.tenant, Steps: s.steps, StateLevel: -1}
	if s.state != nil {
		in.StateLevel = s.state.Level()
	}
	return in
}

// sessionStore owns the live sessions: bounded count, TTL eviction by a
// background sweeper, random URL-safe ids.
type sessionStore struct {
	core *Core
	ttl  time.Duration
	max  int

	mu sync.Mutex
	m  map[string]*session

	// log, when non-nil, is the durable checkpoint log: every create, step
	// and close is appended (fsynced), so a coordinator restart replays the
	// sessions bit-exactly. Append failures are counted, not fatal — the
	// step itself still succeeds. Guarded by mu (the sweeper starts before
	// enableLog installs it).
	log *sessionLog

	// compactMu orders appends against log compaction: appends hold it
	// shared, compaction exclusively across snapshot+rewrite. Without it a
	// record appended between the snapshot and the rename lands in the old
	// file and is silently discarded — a lost create orphans every later
	// step record, and a lost step breaks the "restart resumes every
	// acknowledged step" guarantee.
	compactMu sync.RWMutex

	quit chan struct{}
	done chan struct{}
}

func newSessionStore(core *Core, ttl time.Duration, max int) *sessionStore {
	s := &sessionStore{
		core: core,
		ttl:  ttl,
		max:  max,
		m:    map[string]*session{},
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go s.sweeper()
	return s
}

func (s *sessionStore) close() {
	close(s.quit)
	<-s.done
	s.mu.Lock()
	log := s.log
	s.mu.Unlock()
	if log != nil {
		log.close()
	}
}

// enableLog opens (and replays) the checkpoint log at path, installing
// every surviving session into the store. Called from NewDurableCore
// before the store takes traffic, so there is no contention with live
// sessions; the max bound still applies to replayed sessions.
func (s *sessionStore) enableLog(path string) error {
	log, restored, stats, err := openSessionLog(path, s.core.reg.Params, s.ttl, time.Now())
	if err != nil {
		return err
	}
	var installed int64
	s.mu.Lock()
	for id, sess := range restored {
		if len(s.m) >= s.max {
			break
		}
		if _, exists := s.m[id]; !exists {
			// Seed the compaction snapshot: a restored session must survive
			// a compaction even if it never steps again.
			cp := sess.checkpoint()
			sess.lastCP.Store(&cp)
			s.m[id] = sess
			installed++
		}
	}
	s.log = log
	s.mu.Unlock()
	s.core.met.SessionRestores.Add(installed)
	s.core.met.SessionsActive.Add(installed)
	if stats.expired > 0 {
		s.core.met.SessionsEvicted.Add(int64(stats.expired))
	}
	return nil
}

// logAppend runs one checkpoint append, counting (not propagating)
// failures: losing one checkpoint degrades durability until the next
// append, which is strictly better than failing the client's step.
// compactMu held shared for the duration pins the append to one log file
// generation: it either completes before a compaction snapshot (and is
// superseded by it) or lands in the rewritten log — never in a file about
// to be renamed over.
func (s *sessionStore) logAppend(fn func(*sessionLog) error) {
	s.compactMu.RLock()
	defer s.compactMu.RUnlock()
	s.mu.Lock()
	log := s.log
	s.mu.Unlock()
	if log == nil {
		return
	}
	if err := fn(log); err != nil {
		s.core.met.SessionLogErrors.Add(1)
	}
}

func (s *sessionStore) sweeper() {
	defer close(s.done)
	ival := s.ttl / 4
	if ival > 30*time.Second {
		ival = 30 * time.Second
	}
	if ival < 10*time.Millisecond {
		ival = 10 * time.Millisecond
	}
	t := time.NewTicker(ival)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.sweep(now)
			s.maybeCompact()
		case <-s.quit:
			return
		}
	}
}

// maybeCompact rewrites the checkpoint log down to the live sessions once
// superseded records dominate it (old step checkpoints, closed sessions'
// tombstones, TTL-expired entries). The snapshot and the rewrite happen
// under compactMu held exclusively, so no append can slip a record into
// the file being replaced: an append that completed before the lock is in
// the snapshot (its checkpoint is the session's lastCP), one that is
// still waiting lands in the rewritten log afterwards. Sessions whose
// create append hasn't finished yet (nil lastCP) are skipped — the
// pending append itself carries them into the new log.
func (s *sessionStore) maybeCompact() {
	s.mu.Lock()
	log := s.log
	nlive := len(s.m)
	s.mu.Unlock()
	if log == nil || !log.shouldCompact(nlive) {
		return
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	cps := make([]sessionCheckpoint, 0, len(s.m))
	for _, sess := range s.m {
		if cp := sess.lastCP.Load(); cp != nil {
			cps = append(cps, *cp)
		}
	}
	s.mu.Unlock()
	if err := log.compact(cps); err != nil {
		s.core.met.SessionLogErrors.Add(1)
	}
}

// sweep evicts sessions idle past the TTL, returning how many went. An
// in-flight step holding the session pointer finishes normally — eviction
// only forgets the id, it does not interrupt work.
func (s *sessionStore) sweep(now time.Time) int {
	s.mu.Lock()
	var gone []string
	for id, sess := range s.m {
		if now.Sub(time.Unix(0, sess.last.Load())) > s.ttl {
			delete(s.m, id)
			gone = append(gone, id)
		}
	}
	s.mu.Unlock()
	if len(gone) > 0 {
		s.core.met.SessionsActive.Add(int64(-len(gone)))
		s.core.met.SessionsEvicted.Add(int64(len(gone)))
		for _, id := range gone {
			id := id
			s.logAppend(func(l *sessionLog) error { return l.appendClose(id) })
		}
	}
	return len(gone)
}

func (s *sessionStore) get(id string) (*session, bool) {
	s.mu.Lock()
	sess, ok := s.m[id]
	s.mu.Unlock()
	return sess, ok
}

func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// CreateSession opens an encrypted session binding a tenant to a program.
// Any compiled program works (its executor replays the batch-1 graph);
// programs that exhaust levels across steps additionally need the
// bootstrap service enabled, which step reports when it happens.
func (c *Core) CreateSession(tenant, program string) (SessionInfo, error) {
	c.stateMu.RLock()
	draining := c.draining
	c.stateMu.RUnlock()
	if draining {
		return SessionInfo{}, ErrShuttingDown
	}
	prog, ok := c.reg.Program(program)
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: %q", ErrUnknownProgram, program)
	}
	// Validate against the resident key-name metadata and warm the decoded
	// keys asynchronously — the first step is imminent.
	names, ok := c.reg.TenantKeyNames(tenant)
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	if missing := prog.MissingKeyNames(names); len(missing) > 0 {
		return SessionInfo{}, fmt.Errorf("%w: %v", ErrMissingKeys, missing)
	}
	c.reg.PrefetchTenant(tenant)
	id, err := newSessionID()
	if err != nil {
		return SessionInfo{}, fmt.Errorf("%w: session id: %v", ErrInternal, err)
	}
	sess := &session{id: id, tenant: tenant, program: program}
	sess.touch(time.Now())
	c.sessions.mu.Lock()
	if len(c.sessions.m) >= c.sessions.max {
		c.sessions.mu.Unlock()
		return SessionInfo{}, fmt.Errorf("%w: session limit %d reached", ErrOverloaded, c.sessions.max)
	}
	c.sessions.m[id] = sess
	c.sessions.mu.Unlock()
	c.met.SessionsCreated.Add(1)
	c.met.SessionsActive.Add(1)
	cp := sess.checkpoint() // no steps yet, no lock needed
	sess.lastCP.Store(&cp)
	c.sessions.logAppend(func(l *sessionLog) error { return l.appendCreate(cp) })
	return sess.info(), nil
}

// SessionStep advances a session one program application. A non-nil ct
// (re)seeds the state — required on the first step; a nil ct iterates the
// program on the held state, with the scheduler bootstrapping whenever the
// remaining levels run out. The post-step state is both stored and
// returned, so clients can decrypt-and-verify every step.
func (c *Core) SessionStep(ctx context.Context, id string, ct *ckks.Ciphertext) (*ckks.Ciphertext, SessionInfo, error) {
	c.met.Received.Add(1)
	sess, ok := c.sessions.get(id)
	if !ok {
		return nil, SessionInfo{}, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	select {
	case c.admission <- struct{}{}:
		defer func() { <-c.admission }()
	default:
		c.met.Rejected.Add(1)
		return nil, SessionInfo{}, fmt.Errorf("%w: admission queue full", ErrOverloaded)
	}
	// Step enqueue is a batch admission: start the key reload now so the
	// blocking TenantKeys below finds the tenant resident.
	c.reg.PrefetchTenant(sess.tenant)
	c.stateMu.RLock()
	if c.draining {
		c.stateMu.RUnlock()
		c.met.Rejected.Add(1)
		return nil, SessionInfo{}, ErrShuttingDown
	}
	c.deepWG.Add(1)
	c.stateMu.RUnlock()
	defer c.deepWG.Done()

	prog, ok := c.reg.Program(sess.program)
	if !ok {
		return nil, SessionInfo{}, fmt.Errorf("%w: %q", ErrUnknownProgram, sess.program)
	}
	keys, ok := c.reg.TenantKeys(sess.tenant)
	if !ok {
		return nil, SessionInfo{}, fmt.Errorf("%w: %q", ErrUnknownTenant, sess.tenant)
	}
	if ct != nil {
		def := c.reg.Params.DefaultScale()
		if math.Abs(ct.Scale-def) > 1e-6*def {
			return nil, SessionInfo{}, fmt.Errorf("%w: ciphertext scale %g, sessions expect %g", ErrBadRequest, ct.Scale, def)
		}
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}

	// Steps of one session are inherently sequential — each consumes the
	// previous state — so the session mutex is held across the execution.
	// Other sessions proceed in parallel; their refreshes share batcher
	// ticks with this one.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	in := ct
	if in == nil {
		in = sess.state
	}
	if in == nil {
		c.met.Errors.Add(1)
		return nil, SessionInfo{}, fmt.Errorf("%w: first session step needs a ciphertext", ErrBadRequest)
	}
	pm := c.met.programs[sess.program]
	start := time.Now()
	out, err := c.execute(ctx, prog, sess.tenant, keys, in)
	if err != nil {
		c.met.Errors.Add(1)
		pm.Errors.Add(1)
		return nil, SessionInfo{}, fmt.Errorf("serve: session %s step: %w", id, err)
	}
	sess.state = out
	sess.steps++
	sess.touch(time.Now())
	cp := sess.checkpoint()
	sess.lastCP.Store(&cp)
	c.sessions.logAppend(func(l *sessionLog) error { return l.appendStep(cp) })
	lat := time.Since(start)
	c.met.Completed.Add(1)
	c.met.Latency.Observe(lat)
	c.met.SessionSteps.Add(1)
	pm.Completed.Add(1)
	pm.Latency.Observe(lat)
	return out, sess.info(), nil
}

// Session returns a session's current view.
func (c *Core) Session(id string) (SessionInfo, error) {
	sess, ok := c.sessions.get(id)
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	sess.mu.Lock()
	info := sess.info()
	sess.mu.Unlock()
	return info, nil
}

// CloseSession forgets a session and frees its state.
func (c *Core) CloseSession(id string) error {
	c.sessions.mu.Lock()
	_, ok := c.sessions.m[id]
	if ok {
		delete(c.sessions.m, id)
	}
	c.sessions.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	c.met.SessionsActive.Add(-1)
	c.sessions.logAppend(func(l *sessionLog) error { return l.appendClose(id) })
	return nil
}

// SessionCount reports the live session count (tests, healthz).
func (c *Core) SessionCount() int {
	c.sessions.mu.Lock()
	n := len(c.sessions.m)
	c.sessions.mu.Unlock()
	return n
}
