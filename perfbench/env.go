package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

var nan = math.NaN()

// envInfo identifies the code and the machine a result came from, so that
// numbers from different machines or commits are never compared.
type envInfo struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Workers      int     `json:"workers"`
	GoVersion    string  `json:"go_version"`
	// TimerMs is the median time a 50µs sleep takes: the floor under every
	// timer-driven wait (the coalescer's gather window, the load
	// generator's wake-ups).
	TimerMs float64 `json:"timer_ms"`
}

func describeEnv(cfg config) envInfo {
	return envInfo{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.window.Seconds(),
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      cfg.workers,
		GoVersion:    runtime.Version(),
		TimerMs:      timerGranularity(),
	}
}

// commit is the VCS revision stamped into the binary, or "unknown" when it
// was built outside a repository (then SourceSHA256 identifies the code).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and go.mod file under root (names
// and contents, in walk order), skipping build output.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func timerGranularity() float64 {
	const samples = 21
	xs := make([]float64, samples)
	for i := range xs {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		xs[i] = ms(time.Since(t0))
	}
	return quantile(xs, 0.5)
}
