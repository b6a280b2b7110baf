package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"histar/internal/auth"
	"histar/internal/unixlib"
	"histar/internal/webd"
)

// web-mixed is the §6.4 per-user web service under a closed loop of one
// client: Serve blocks, so the client sends its next request when the
// reply arrives.  A round boots a fresh site, serves a fixed batch of
// requests and ends with one whole-system group sync (HiStar's periodic
// snapshot), so the store and disk see the web state the round dirtied.
// Rounds are bounded because the site's live heap grows with every cold
// login.

// webShape sizes web-mixed.
type webShape struct {
	users, sessions, hot int
	sandbox              int // golden sandbox bytes cloned per cold login
	perRound             int // requests per round
	logoutEvery          int // about one logout per this many requests
}

var (
	fullWeb  = webShape{users: 512, sessions: 128, hot: 64, sandbox: 1 << 20, perRound: 4096, logoutEvery: 500}
	smallWeb = webShape{users: 48, sessions: 16, hot: 8, sandbox: 64 << 10, perRound: 200, logoutEvery: 50}
)

const (
	hotShare = 0.9 // share of requests that go to the hot users
	setShare = 0.3 // share of requests that set the profile
)

// request is one generated request.
type request struct {
	user   int
	set    bool
	n      int // value sequence number for a set
	logout bool
}

func userName(i int) string { return "u" + strconv.Itoa(i) }
func password(i int) string { return "pw-" + strconv.Itoa(i) }

// profileValue is the n'th value user i sets.  It names its owner and is
// fixed-width per user, so an overwrite replaces the whole value.
func profileValue(i, n int) string { return fmt.Sprintf("%s.%08d", userName(i), n) }

// webSite is a booted web server with its population registered, its
// golden sandbox baked and every user's profile primed.
type webSite struct {
	r   *rig
	srv *webd.Server
	sh  webShape
	// issued[i] is the highest sequence number generated for user i; a
	// GET may return any value up to it.
	issued []int64
	rng    *rand.Rand
}

func setupWeb(r *rig, seed int64, sh webShape) (*webSite, error) {
	if err := r.boot(); err != nil {
		return nil, err
	}
	sys := r.sys
	authSvc := auth.New(sys)
	for i := 0; i < sh.users; i++ {
		if _, err := authSvc.Register(userName(i), password(i)); err != nil {
			return nil, fmt.Errorf("register %s: %w", userName(i), err)
		}
	}
	tmpl, err := sys.AddUser("goldentmpl")
	if err != nil {
		return nil, err
	}
	img, err := sys.BakeGoldenData("webd-sandbox", tmpl, sh.sandbox)
	if err != nil {
		return nil, err
	}
	w := &webSite{
		r:      r,
		srv:    webd.NewWithConfig(sys, authSvc, webd.ProfileApp, webd.Config{MaxSessions: sh.sessions, Golden: img}),
		sh:     sh,
		issued: make([]int64, sh.users),
		rng:    rand.New(rand.NewSource(seed)),
	}
	// Prime every profile (value 0), then touch the hot set so the session
	// cache starts in its steady state.
	for i := 0; i < sh.users; i++ {
		if _, err := w.srv.Serve(webd.Request{User: userName(i), Password: password(i), Path: "/profile/set/" + profileValue(i, 0)}); err != nil {
			w.srv.Close()
			return nil, fmt.Errorf("priming %s: %w", userName(i), err)
		}
	}
	for i := 0; i < sh.hot; i++ {
		if _, err := w.srv.Serve(webd.Request{User: userName(i), Password: password(i), Path: "/profile"}); err != nil {
			w.srv.Close()
			return nil, fmt.Errorf("warming %s: %w", userName(i), err)
		}
	}
	return w, nil
}

// generate draws the next round's requests: 90% to the hot users, 10%
// uniform over everyone; 70% GET, 30% set; about one logout per
// logoutEvery requests.
func (w *webSite) generate() []request {
	reqs := make([]request, w.sh.perRound)
	for k := range reqs {
		q := &reqs[k]
		if w.rng.Float64() < hotShare {
			q.user = w.rng.Intn(w.sh.hot)
		} else {
			q.user = w.rng.Intn(w.sh.users)
		}
		if w.rng.Float64() < setShare {
			q.set = true
			w.issued[q.user]++
			q.n = int(w.issued[q.user])
		}
		q.logout = w.rng.Intn(w.sh.logoutEvery) == 0
	}
	return reqs
}

// serve sends one request and checks the reply.  A GET that returns a
// value its user never set is a flow violation.
func (w *webSite) serve(c *client, q request) (userBytes int64, violation error) {
	user := userName(q.user)
	if q.logout {
		w.srv.Logout(user)
	}
	path, value := "/profile", ""
	if q.set {
		value = profileValue(q.user, q.n)
		path = "/profile/set/" + value
	}
	var resp string
	if c.do("serve", func() (err error) {
		resp, err = w.srv.Serve(webd.Request{User: user, Password: password(q.user), Path: path})
		return err
	}) != nil {
		return 0, nil
	}
	body, ok := strings.CutPrefix(resp, "HTTP/1.0 200 OK\r\n\r\n")
	switch {
	case !ok:
		c.fail(fmt.Errorf("serve %s %s: malformed reply %q", user, path, resp))
	case q.set && body != "stored" && body != "updated":
		c.fail(fmt.Errorf("serve %s %s: unexpected reply %q", user, path, body))
	case q.set:
		return int64(len(value)), nil
	default:
		return 0, checkProfile(q.user, body, w.issued[q.user])
	}
	return 0, nil
}

// checkProfile checks that a GET /profile for user i returned a value that
// user set: its own name and a sequence number already issued.
func checkProfile(i int, body string, issued int64) error {
	owner, seq, found := strings.Cut(body, ".")
	n, err := strconv.Atoi(seq)
	if !found || owner != userName(i) || err != nil || n < 0 || int64(n) > issued {
		return fmt.Errorf("flow violation: GET /profile for %s returned %q, a value %s never set", userName(i), body, userName(i))
	}
	return nil
}

// round serves one batch from a single closed-loop client, then
// group-syncs the store.
func (w *webSite) round(tr *tracer, sp *unixlib.Process) (round, []error) {
	reqs := w.generate()
	rd := round{Traced: tr != nil}
	before := w.r.snapshot(w.srv)
	cpu0, w0 := processCPU(), time.Now()
	var (
		user       int64
		violations []error
	)
	c := newClient(tr, false)
	for _, q := range reqs {
		n, v := w.serve(c, q)
		user += n
		if v != nil {
			violations = append(violations, v)
		}
	}
	syncer := newClient(tr, true)
	syncer.do("group_sync", sp.GroupSync)
	rd.Wall, rd.CPU = time.Since(w0), processCPU()-cpu0
	rd.Delta = w.r.snapshot(w.srv).sub(before)
	rd.merge(c)
	// The sync is not a request: it counts as a sync but adds no latency
	// sample.
	rd.ByOp["group_sync"] += syncer.byOp["group_sync"]
	rd.Failed += syncer.failed
	rd.Errs = append(rd.Errs, syncer.errs...)
	rd.collect(tr)
	rd.UserBytes = float64(user)
	var live int
	for i := range w.issued {
		live += len(profileValue(i, 0))
	}
	rd.SpaceAmp = safeDiv(float64(w.r.inUse(w.r.st)), float64(live))
	return rd, violations
}

// webRound sets up a fresh site (timed as setup), serves one batch of
// requests, group-syncs, and measures the live heap.
func webRound(cfg config, traced bool) (*runResult, error) {
	sh := fullWeb
	if cfg.small {
		sh = smallWeb
	}
	r := newRig()
	t0 := time.Now()
	// Each round of a run draws its own requests, so the run's medians
	// average over request mixes.
	w, err := setupWeb(r, cfg.seed*1_000_003+int64(cfg.index), sh)
	if err != nil {
		return nil, err
	}
	defer w.srv.Close()
	sp, err := r.sys.NewInitProcess("sync")
	if err != nil {
		return nil, err
	}
	res := &runResult{Clients: 1, Setups: []time.Duration{time.Since(t0)}}
	warmHeap()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r.dev.tr = tr
	rd, violations := w.round(tr, sp)
	r.dev.tr = nil
	rd.HeapMiB = r.liveHeapMiB()
	for _, v := range violations {
		res.Violations = append(res.Violations, v.Error())
	}
	res.Rounds = append(res.Rounds, rd)
	return res, nil
}
