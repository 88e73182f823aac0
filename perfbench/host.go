package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// cpuNow returns the process's user+system CPU time in microseconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostRecord describes the machine and the code a result came from.
func hostRecord() map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"commit":      commit,
		"source_sha":  sourceDigest("."),
	}
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories (build output, VCS data), so a result names the code
// it measured even in a checkout that is not a git repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
