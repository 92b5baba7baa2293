package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host identifies the machine and code a result was measured on, so
// that numbers from different hosts or sources are never compared.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// SourceSHA256 hashes every Go source and go.mod of the module and
	// the benchmark, so a checkout without git history is identified too.
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func hostRecord(o options) (host, error) {
	sum, err := sourceHash(".")
	if err != nil {
		return host{}, err
	}
	return host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Commit:       o.commit,
		SourceSHA256: sum,
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      int(o.budget.Seconds()),
		Trace:        o.trace,
	}, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or reports
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes the path and contents of every .go and go.mod file
// under root, skipping hidden directories (build output lives there).
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
