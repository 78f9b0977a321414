package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/durable"
)

// span is one recorded interval. Spans of one client request share
// Req; Parent is the span that caused this one (0 for a root). The
// attribute fields are zero where they do not apply.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	Bytes    int64  `json:"bytes,omitempty"`    // durable writes and maps
	File     string `json:"file,omitempty"`     // durable: "wal" or "snapshot"
	Dispatch int64  `json:"dispatch,omitempty"` // core solves: the SolveBatch call serving the request
	Batch    int    `json:"batch,omitempty"`    // core solves: requests in that call
	Iters    int    `json:"iters,omitempty"`    // core solves: kernel rounds of that call
	Rebuilt  bool   `json:"rebuilt,omitempty"`  // core.Update: Stats().Rebuilds advanced
	Rows     int64  `json:"rows,omitempty"`     // core.Update: ResidualRowsRelaxed delta
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op on it.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	// io is the span that owns durable I/O at the moment. The write path
	// is serialized (one writer per workload, and updates serialize
	// inside the solver), so the filesystem decorator parents its spans
	// to whichever Prepare, OpenFS or Update span set it.
	io   atomic.Int64
	tags sync.Map // *beliefs.Residual → tag of the in-flight FrontEnd.Solve carrying it

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// tag identifies the client request a call belongs to.
type tag struct{ span, req int64 }

// region is an open span.
type region struct {
	t *tracer
	s span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newReq returns a fresh request id (0 when untraced).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) open(name string, parent, req int64) *region {
	if t == nil {
		return nil
	}
	return &region{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: t.now()}}
}

func (r *region) id() int64 {
	if r == nil {
		return 0
	}
	return r.s.ID
}

func (r *region) close() {
	if r == nil {
		return
	}
	r.s.End = r.t.now()
	r.t.add(r.s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ownIO makes r the parent of durable I/O until the returned restore
// runs.
func (t *tracer) ownIO(r *region) (restore func()) {
	if t == nil {
		return func() {}
	}
	prev := t.io.Swap(r.id())
	return func() { t.io.Store(prev) }
}

// tagSolve binds the explicit beliefs of an in-flight FrontEnd.Solve to
// its span, so the solver decorator can parent the dispatch serving it.
// Callers never have two in-flight requests on the same matrix.
func (t *tracer) tagSolve(e *beliefs.Residual, r *region) {
	if t != nil {
		t.tags.Store(e, tag{r.id(), r.s.Req})
	}
}

func (t *tracer) untagSolve(e *beliefs.Residual) {
	if t != nil {
		t.tags.Delete(e)
	}
}

func (t *tracer) tagOf(e *beliefs.Residual) tag {
	v, _ := t.tags.Load(e)
	tg, _ := v.(tag)
	return tg
}

type tagKey struct{}

// withTag carries a request's span into the calls FrontEnd forwards the
// caller's context to (Update).
func withTag(ctx context.Context, r *region) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, tagKey{}, tag{r.id(), r.s.Req})
}

func tagFrom(ctx context.Context) tag {
	tg, _ := ctx.Value(tagKey{}).(tag)
	return tg
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSolver is the core.Solver decorator handed to serve.New in the
// traced run. It only observes: every call is forwarded unchanged, and
// Stats (hence BatchHint, and the front end's batch sizing) comes from
// the wrapped solver through the embedded interface.
type tracedSolver struct {
	core.Solver
	t *tracer
}

func (s *tracedSolver) SolveBatch(ctx context.Context, reqs []core.Request) []core.Response {
	start := s.t.now()
	resp := s.Solver.SolveBatch(ctx, reqs)
	end := s.t.now()
	dispatch := s.t.ids.Add(1)
	iters := 0
	for _, r := range resp {
		iters = max(iters, r.Info.Iterations)
	}
	for _, r := range reqs {
		tg := s.t.tagOf(r.E)
		s.t.add(span{ID: s.t.ids.Add(1), Parent: tg.span, Req: tg.req, Name: "core.SolveBatch",
			Start: start, End: end, Dispatch: dispatch, Batch: len(reqs), Iters: iters})
	}
	return resp
}

func (s *tracedSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (core.SolveInfo, error) {
	start := s.t.now()
	info, err := s.Solver.SolveInto(ctx, dst, e)
	end := s.t.now()
	tg := s.t.tagOf(e)
	s.t.add(span{ID: s.t.ids.Add(1), Parent: tg.span, Req: tg.req, Name: "core.SolveInto",
		Start: start, End: end, Dispatch: s.t.ids.Add(1), Batch: 1, Iters: info.Iterations})
	return info, err
}

func (s *tracedSolver) Update(ctx context.Context, u core.Update) (*core.Result, error) {
	tg := tagFrom(ctx)
	pre := s.Solver.Stats()
	r := s.t.open("core.Update", tg.span, tg.req)
	restore := s.t.ownIO(r)
	res, err := s.Solver.Update(ctx, u)
	restore()
	r.s.End = s.t.now()
	post := s.Solver.Stats()
	r.s.Rebuilt = post.Rebuilds > pre.Rebuilds
	r.s.Rows = post.ResidualRowsRelaxed - pre.ResidualRowsRelaxed
	s.t.add(r.s)
	return res, err
}

// tracedFS is the durable.FS decorator handed to WithDurabilityFS and
// OpenFS in the traced run. It times writes and syncs and forwards
// Mmap, so the snapshot loader keeps its mmap path.
type tracedFS struct {
	durable.FS
	t *tracer
}

type mmapper interface {
	Mmap(path string) ([]byte, func(), error)
}

func (f tracedFS) Create(path string) (durable.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t, kind: fileKind(path)}, nil
}

func (f tracedFS) OpenAppend(path string) (durable.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t, kind: fileKind(path)}, nil
}

func (f tracedFS) SyncDir(dir string) error {
	r := f.t.open("durable.SyncDir", f.t.io.Load(), 0)
	err := f.FS.SyncDir(dir)
	r.close()
	return err
}

func (f tracedFS) Mmap(path string) ([]byte, func(), error) {
	m, ok := f.FS.(mmapper)
	if !ok {
		return nil, nil, errors.New("perfbench: wrapped filesystem cannot mmap")
	}
	r := f.t.open("durable.Mmap", f.t.io.Load(), 0)
	data, release, err := m.Mmap(path)
	r.s.Bytes = int64(len(data))
	r.s.File = fileKind(path)
	r.close()
	return data, release, err
}

func fileKind(path string) string {
	if filepath.Base(path) == durable.WALFile {
		return "wal"
	}
	return "snapshot"
}

type tracedFile struct {
	durable.File
	t    *tracer
	kind string
}

func (f *tracedFile) Write(p []byte) (int, error) {
	r := f.t.open("durable.Write", f.t.io.Load(), 0)
	n, err := f.File.Write(p)
	r.s.Bytes, r.s.File = int64(n), f.kind
	r.close()
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	r := f.t.open("durable.Write", f.t.io.Load(), 0)
	n, err := f.File.WriteAt(p, off)
	r.s.Bytes, r.s.File = int64(n), f.kind
	r.close()
	return n, err
}

func (f *tracedFile) Sync() error {
	r := f.t.open("durable.Sync", f.t.io.Load(), 0)
	err := f.File.Sync()
	r.s.File = f.kind
	r.close()
	return err
}
