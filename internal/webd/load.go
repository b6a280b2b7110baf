package webd

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"histar/internal/auth"
	"histar/internal/kernel"
	"histar/internal/netsim"
	"histar/internal/unixlib"
	"histar/internal/vclock"
)

// Load harness: boots a complete system, registers a population of users,
// and drives mixed hit/miss/cold-login web traffic at the server over a
// simulated Ethernet link, measuring throughput and latency.  This is the
// paper's Section 6.4 claim at scale — a web server whose per-user isolation
// comes from kernel labels — plus the numbers the session cache and
// ring-native gate calls are supposed to move.

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	// Users is the registered population (default 64).
	Users int
	// Requests is the total request count across all clients (default 1000).
	Requests int
	// Concurrency is the number of closed-loop client goroutines
	// (default 8).
	Concurrency int
	// HotUsers is the size of the frequently requested subset (default
	// half the server's session capacity), HotFraction the probability a
	// request targets it (default 0.9).  The remaining requests spread
	// uniformly over all users, so a population larger than the session
	// cache continuously forces evictions and cold logins.
	HotUsers    int
	HotFraction float64
	// LogoutEvery makes roughly one in this many requests log the user out
	// first, exercising explicit invalidation under load (0 disables).
	LogoutEvery int
	// Prewarm serves one untimed request per hot user before measurement
	// starts, so the measured window is the cache's steady state rather than
	// its cold ramp.  Ignored for the baseline (it has no cache to warm).
	Prewarm bool
	// SandboxBytes gives every cold login a per-user sandbox of this many
	// read-only bytes.  With GoldenImage set the sandbox is cloned from a
	// pre-baked golden image (O(metadata), all bytes shared COW); otherwise
	// it is built from scratch — the baseline.  0 spawns no sandboxes.
	SandboxBytes int
	// GoldenImage bakes a golden image at boot and serves cold logins by
	// cloning it (requires SandboxBytes > 0).
	GoldenImage bool
	// Seed drives both the kernel and the traffic mix.
	Seed int64
	// Server configures the web server under test; set
	// Server.DisableSessionCache for the per-request-login baseline.
	Server Config
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Users <= 0 {
		c.Users = 64
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	c.Server = c.Server.withDefaults()
	if c.HotUsers <= 0 {
		c.HotUsers = c.Server.MaxSessions / 2
	}
	if c.HotUsers > c.Users {
		c.HotUsers = c.Users
	}
	if c.HotFraction <= 0 || c.HotFraction > 1 {
		c.HotFraction = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// LoadReport is a load run's measurements, shaped for JSON.
type LoadReport struct {
	Users       int  `json:"users"`
	Requests    int  `json:"requests"`
	Concurrency int  `json:"concurrency"`
	Lanes       int  `json:"lanes"`
	Baseline    bool `json:"baseline"`

	Prewarmed int `json:"prewarmed"`

	ElapsedSec float64 `json:"elapsed_sec"`
	RPS        float64 `json:"rps"`
	P50Micros  float64 `json:"p50_micros"`
	P99Micros  float64 `json:"p99_micros"`
	P999Micros float64 `json:"p999_micros"`
	Errors     uint64  `json:"errors"`

	Sessions SessionStats `json:"sessions"`
	HitRate  float64      `json:"hit_rate"`

	// Sandbox spawn accounting for the cold-user blend: how cold logins got
	// their sandboxes and what the golden-image fast-path shared vs copied.
	SandboxBytes    int    `json:"sandbox_bytes"`
	Golden          bool   `json:"golden"`
	GoldenSpawns    uint64 `json:"golden_spawns"`
	ScratchSpawns   uint64 `json:"scratch_spawns"`
	SnapSharedBytes uint64 `json:"snap_shared_bytes"`
	SnapCopiedBytes uint64 `json:"snap_copied_bytes"`
	SnapCowBreaks   uint64 `json:"snap_cow_breaks"`

	RingWaits     uint64 `json:"ring_waits"`
	RingGateCalls uint64 `json:"ring_gate_calls"`
	RingEntries   uint64 `json:"ring_entries"`

	WireBytes     uint64  `json:"wire_bytes"`
	SimWireMillis float64 `json:"sim_wire_millis"`
}

// loadUser returns the i'th synthetic account name and password.
func loadUser(i int) (name, password string) {
	return "u" + strconv.Itoa(i), "pw-" + strconv.Itoa(i)
}

// RunLoad boots a fresh system, registers cfg.Users accounts, and drives
// cfg.Requests requests at the server from cfg.Concurrency closed-loop
// clients over a simulated Ethernet link.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: uint64(cfg.Seed)}})
	if err != nil {
		return nil, err
	}
	authSvc := auth.New(sys)
	for i := 0; i < cfg.Users; i++ {
		name, pw := loadUser(i)
		if _, err := authSvc.Register(name, pw); err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
	}
	if cfg.SandboxBytes > 0 {
		if cfg.GoldenImage {
			// Bake once with a template account's categories; every cold
			// login clones it with the categories remapped to the real user.
			tmpl, err := sys.AddUser("goldentmpl")
			if err != nil {
				return nil, fmt.Errorf("golden template user: %w", err)
			}
			img, err := sys.BakeGoldenData("webd-sandbox", tmpl, cfg.SandboxBytes)
			if err != nil {
				return nil, fmt.Errorf("baking golden image: %w", err)
			}
			cfg.Server.Golden = img
		} else {
			cfg.Server.SandboxBytes = cfg.SandboxBytes
		}
	}
	srv := NewWithConfig(sys, authSvc, ProfileApp, cfg.Server)
	defer srv.Close()

	// The wire: clients sit on side A, the server endpoint on side B.  The
	// link delivers synchronously in the sender's goroutine, so a client's
	// SendAtoB runs the whole request and the response lands in its reply
	// channel before SendAtoB returns; the link still accounts every byte
	// and its simulated transfer time.
	clock := &vclock.Clock{}
	link := netsim.NewLink(netsim.PaperEthernet(), clock)
	var replies sync.Map // request id -> chan []byte
	link.Attach(
		netsim.EndpointFunc(func(frame []byte) {
			id, payload := splitLoadFrame(frame)
			if ch, ok := replies.Load(id); ok {
				ch.(chan []byte) <- payload
			}
		}),
		netsim.EndpointFunc(func(frame []byte) {
			id, payload := splitLoadFrame(frame)
			parts := bytes.SplitN(payload, []byte{' '}, 3)
			if len(parts) != 3 {
				link.SendBtoA(joinLoadFrame(id, []byte("ERR malformed request")))
				return
			}
			resp, err := srv.Serve(Request{
				User:     string(parts[0]),
				Password: string(parts[1]),
				Path:     string(parts[2]),
			})
			if err != nil {
				resp = "ERR " + err.Error()
			}
			link.SendBtoA(joinLoadFrame(id, []byte(resp)))
		}),
	)

	prewarmed := 0
	if cfg.Prewarm && !cfg.Server.DisableSessionCache {
		for i := 0; i < cfg.HotUsers; i++ {
			name, pw := loadUser(i)
			if _, err := srv.Serve(Request{User: name, Password: pw, Path: "/profile/set/v" + strconv.Itoa(i)}); err != nil {
				return nil, fmt.Errorf("prewarm %s: %w", name, err)
			}
			prewarmed++
		}
	}

	sys.Kern.ResetRingStats()
	ss0 := srv.SessionStats()

	var (
		nextReq   atomic.Int64
		nextID    atomic.Uint64
		errCount  atomic.Uint64
		latencies = make([][]time.Duration, cfg.Concurrency)
		wg        sync.WaitGroup
	)
	start := time.Now()
	for g := 0; g < cfg.Concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)*7919))
			lats := make([]time.Duration, 0, cfg.Requests/cfg.Concurrency+1)
			for nextReq.Add(1) <= int64(cfg.Requests) {
				var idx int
				if rng.Float64() < cfg.HotFraction {
					idx = rng.Intn(cfg.HotUsers)
				} else {
					idx = rng.Intn(cfg.Users)
				}
				user, pw := loadUser(idx)
				if cfg.LogoutEvery > 0 && rng.Intn(cfg.LogoutEvery) == 0 {
					srv.Logout(user)
				}
				id := nextID.Add(1)
				ch := make(chan []byte, 1)
				replies.Store(id, ch)
				req := []byte(user + " " + pw + " /profile/set/v" + strconv.Itoa(idx))
				t0 := time.Now()
				link.SendAtoB(joinLoadFrame(id, req))
				resp := <-ch
				lats = append(lats, time.Since(t0))
				replies.Delete(id)
				if bytes.HasPrefix(resp, []byte("ERR")) {
					errCount.Add(1)
				}
			}
			latencies[g] = lats
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Microsecond)
	}

	// Session counters over the measured window only (the prewarm ramp's
	// misses are the cache filling, not steady-state behavior).
	st := srv.SessionStats()
	st.Hits -= ss0.Hits
	st.Misses -= ss0.Misses
	st.ColdLogins -= ss0.ColdLogins
	st.BadPasswords -= ss0.BadPasswords
	st.Evictions -= ss0.Evictions
	st.IdleEvictions -= ss0.IdleEvictions
	st.Logouts -= ss0.Logouts
	st.GoldenSpawns -= ss0.GoldenSpawns
	st.ScratchSpawns -= ss0.ScratchSpawns
	hitRate := 0.0
	if st.Hits+st.Misses > 0 {
		hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	ring := sys.Kern.RingStats()
	snap := sys.Kern.SnapshotStats()
	bytesAB, bytesBA, _, _ := link.Stats()

	return &LoadReport{
		Users:       cfg.Users,
		Requests:    cfg.Requests,
		Concurrency: cfg.Concurrency,
		Lanes:       cfg.Server.Lanes,
		Baseline:    cfg.Server.DisableSessionCache,
		Prewarmed:   prewarmed,

		ElapsedSec: elapsed.Seconds(),
		RPS:        float64(cfg.Requests) / elapsed.Seconds(),
		P50Micros:  pct(0.50),
		P99Micros:  pct(0.99),
		P999Micros: pct(0.999),
		Errors:     errCount.Load(),

		Sessions: st,
		HitRate:  hitRate,

		SandboxBytes:    cfg.SandboxBytes,
		Golden:          cfg.GoldenImage,
		GoldenSpawns:    st.GoldenSpawns,
		ScratchSpawns:   st.ScratchSpawns,
		SnapSharedBytes: snap.SharedBytes,
		SnapCopiedBytes: snap.CopiedBytes,
		SnapCowBreaks:   snap.CowBreaks,

		RingWaits:     ring.Waits,
		RingGateCalls: ring.GateCalls,
		RingEntries:   ring.Entries,

		WireBytes:     bytesAB + bytesBA,
		SimWireMillis: float64(clock.Now()) / float64(time.Millisecond),
	}, nil
}

// Load frames are [8-byte decimal request id][space][payload]; a fixed-width
// id keeps parsing trivial on both ends of the link.
func joinLoadFrame(id uint64, payload []byte) []byte {
	return append([]byte(fmt.Sprintf("%08d ", id)), payload...)
}

func splitLoadFrame(frame []byte) (uint64, []byte) {
	if len(frame) < 9 {
		return 0, nil
	}
	id, err := strconv.ParseUint(string(frame[:8]), 10, 64)
	if err != nil {
		return 0, nil
	}
	return id, frame[9:]
}
