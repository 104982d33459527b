package obs

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // register /debug/pprof handlers on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// The -http surface is http.DefaultServeMux: net/http/pprof mounts
// /debug/pprof/ there on import, and this init mounts /metrics beside it
// (the expvar pattern), so a process serves the route once however often
// Start runs.
func init() {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		Default.WriteProm(NewPromWriter(w))
	})
}

// ProfileFlags bundles the runtime-profiling flags shared by the three CLIs
// (hamlet, experiments, simulate): CPU and heap profiles for short runs, and
// an HTTP endpoint serving net/http/pprof plus /metrics (the Default
// metrics registry) for long ones.
//
//	experiments -id fig7 -cpuprofile cpu.out -memprofile mem.out
//	experiments -http :6060   # then: go tool pprof http://localhost:6060/debug/pprof/profile
type ProfileFlags struct {
	// CPU is the CPU profile output path ("" disables).
	CPU string
	// Mem is the heap profile output path, written at Stop ("" disables).
	Mem string
	// HTTP is the listen address for pprof + /metrics ("" disables).
	HTTP string
}

// Register installs -cpuprofile, -memprofile, and -http on the flag set.
func (p *ProfileFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.HTTP, "http", "", "serve net/http/pprof and /metrics on this address (e.g. :6060)")
}

// Start begins profiling per the flags and returns a stop function that the
// caller must run on exit (it stops the CPU profile and writes the heap
// profile). The HTTP server, if any, runs until the process exits.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("obs: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: start cpu profile: %w", err)
		}
	}
	if p.HTTP != "" {
		ln := p.HTTP
		go func() {
			if err := http.ListenAndServe(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "obs: http %s: %v\n", ln, err)
			}
		}()
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				return fmt.Errorf("obs: create mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("obs: write mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
