package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
)

// Host records the machine a results file was measured on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
}

// ThisHost describes the running machine and the GOMAXPROCS the workloads
// run with; the CPU model comes from /proc/cpuinfo where there is one.
func ThisHost() Host {
	h := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: Procs, GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// File is a results file: named sets of runs, each set measured on Host.
// A full run writes the set "untraced" or "traced"; a ledger entry holds
// several sets of the same commit.
type File struct {
	Host Host                   `json:"host"`
	Sets map[string][]RunRecord `json:"sets"`
}

// ReadFile loads a results file; a missing file reads as empty.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return File{Sets: map[string][]RunRecord{}}, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Sets == nil {
		f.Sets = map[string][]RunRecord{}
	}
	return f, nil
}

// WriteFile stores a results file.
func WriteFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSet resolves "FILE" or "FILE#SET" to a set of runs. Without a set
// name the file must hold exactly one set, or an "untraced" one.
func ReadSet(ref string) ([]RunRecord, error) {
	path, set, named := strings.Cut(ref, "#")
	f, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !named {
		switch {
		case len(f.Sets) == 1:
			for name := range f.Sets {
				set = name
			}
		case f.Sets["untraced"] != nil:
			set = "untraced"
		default:
			return nil, fmt.Errorf("%s holds %d sets; name one as %s#SET", path, len(f.Sets), path)
		}
	}
	runs, ok := f.Sets[set]
	if !ok {
		return nil, fmt.Errorf("%s has no set %q", path, set)
	}
	return runs, nil
}
