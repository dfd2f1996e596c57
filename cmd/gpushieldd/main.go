// Command gpushieldd is the multi-tenant GPUShield service daemon: an
// HTTP/JSON front end over a pool of simulated GPUShield devices shared by
// mutually untrusting tenants. Tenants create sessions, allocate buffers in
// the shared per-device address space, and launch kernels from a fixed
// template catalog; isolation between them is the paper's region-based bounds
// checking, not separate address spaces.
//
// Usage:
//
//	gpushieldd -addr :8473 -devices 2
//	curl -s -X POST localhost:8473/v1/sessions -d '{"tenant":"alice"}'
//
// Shutdown is two-stage via internal/lifecycle: on the first SIGINT/SIGTERM
// the daemon stops admitting work (503 + Retry-After), lets queued launches
// finish within -drain-timeout, closes the listener, and exits 0; a second
// signal hard-exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"gpushield/internal/lifecycle"
	"gpushield/internal/service"
)

func main() {
	cfg := service.DefaultConfig()
	addr := flag.String("addr", ":8473", "listen address")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful drain budget after the first signal")
	flag.IntVar(&cfg.Devices, "devices", cfg.Devices, "simulated devices in the pool")
	flag.IntVar(&cfg.QueueDepth, "queue-depth", cfg.QueueDepth, "per-device launch queue bound (shared, 503 past it)")
	flag.IntVar(&cfg.TenantQueueDepth, "tenant-queue-depth", cfg.TenantQueueDepth, "per-tenant launch queue bound (429 past it)")
	flag.IntVar(&cfg.MaxSessions, "max-sessions", cfg.MaxSessions, "live session bound across the service")
	flag.IntVar(&cfg.TenantSessions, "tenant-sessions", cfg.TenantSessions, "live session bound per tenant")
	flag.IntVar(&cfg.BufferBudget, "buffer-budget", cfg.BufferBudget, "buffers per session")
	flag.Uint64Var(&cfg.ByteBudget, "byte-budget", cfg.ByteBudget, "resident bytes per session (padded sizes)")
	flag.Uint64Var(&cfg.CycleBudget, "cycle-budget", cfg.CycleBudget, "lifetime simulated cycles per session")
	flag.Uint64Var(&cfg.LaunchCycleCap, "launch-cycle-cap", cfg.LaunchCycleCap, "watchdog cap on a single launch")
	flag.DurationVar(&cfg.DefaultDeadline, "default-deadline", cfg.DefaultDeadline, "deadline for launches that carry none")
	flag.DurationVar(&cfg.MaxDeadline, "max-deadline", cfg.MaxDeadline, "clamp on client-supplied deadlines")
	flag.Uint64Var(&cfg.DeviceHighWater, "device-high-water", cfg.DeviceHighWater, "allocated bytes past which an idle device is recycled")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "device key/seed base")
	flag.Parse()

	srv, err := service.New(cfg)
	if err != nil {
		log.Fatalf("gpushieldd: %v", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(srv),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// First signal: flip to draining (admission sheds with 503 immediately —
	// service.Drain sets the flag before waiting) and bound the rest of
	// shutdown by -drain-timeout. Second signal: lifecycle hard-exits 130.
	drainCtx, startDrain := context.WithCancelCause(context.Background())
	defer startDrain(nil)
	stopNotify := lifecycle.Notify(func(sig os.Signal) {
		log.Printf("gpushieldd: %v: draining (budget %v); signal again to exit immediately", sig, *drainTimeout)
		startDrain(lifecycle.CancelCause(sig))
	})

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	log.Printf("gpushieldd: serving on %s (%d devices)", *addr, cfg.Devices)

	select {
	case err := <-serveErr:
		// Listener died without a signal: nothing to drain into.
		log.Fatalf("gpushieldd: serve: %v", err)
	case <-drainCtx.Done():
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()

	// Drain the service first so queued launches finish while their clients
	// still hold open connections, then close the listener under the same
	// budget. Shutdown unblocks ListenAndServe with ErrServerClosed.
	drainErr := srv.Drain(ctx)
	shutdownErr := httpSrv.Shutdown(ctx)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("gpushieldd: serve: %v", err)
	}

	stopNotify()
	stats := srv.Snapshot()
	log.Printf("gpushieldd: drained: %d launches (%d errors), %d violations (%d cross-tenant blocked), shed q/o/d %d/%d/%d",
		stats.Launches, stats.LaunchErrors, stats.Violations, stats.CrossTenant,
		stats.ShedQuota, stats.ShedOverload, stats.ShedDraining)
	if drainErr != nil || shutdownErr != nil {
		fmt.Fprintf(os.Stderr, "gpushieldd: drain cut short (drain: %v, shutdown: %v)\n", drainErr, shutdownErr)
		os.Exit(1)
	}
}
