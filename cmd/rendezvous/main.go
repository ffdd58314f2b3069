// Command rendezvous runs a standalone rendezvous daemon over TCP: the
// infrastructure peer that bridges sub-networks, tracks connected peers
// and propagates their events to one another. TPS event groups of any
// type are served by its one rendezvous service. Every peer
// must be able to accept connections: the daemon dials its clients back
// (see ROBUSTNESS.md, "Firewalled peers").
//
// Operational state is served over the embedded admin endpoint instead
// of periodic log lines:
//
//	go run ./cmd/rendezvous -listen 0.0.0.0:9701
//	curl -s http://127.0.0.1:7700/stats | jq .
//	go run ./cmd/tpsctl stats -admin 127.0.0.1:7700
//
//	go run ./cmd/rendezvous -listen 0.0.0.0:9702 -seed tcp://host-a:9701   # mesh
//
// A replica set — rendezvous that anti-entropy-sync their durable event
// logs so any one of them can serve the others' retained history after
// a crash — is formed by pointing replicas at each other (they must
// all run with -log-dir):
//
//	go run ./cmd/rendezvous -listen :9701 -log-dir /var/tps/a -replica tcp://host-b:9702
//	go run ./cmd/rendezvous -listen :9702 -log-dir /var/tps/b -replica tcp://host-a:9701
//
// Clients list both replicas as seeds with failover enabled and elect
// one active; inspect sync state with `tpsctl replicas`.
//
// The admin server carries no authentication: keep it on loopback (the
// default) unless the network is trusted. -admin "" disables it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/obs/admin"
)

func main() {
	var (
		listen    = flag.String("listen", "0.0.0.0:9701", "TCP listen address")
		seeds     = flag.String("seed", "", "comma-separated addresses of other rendezvous to mesh with")
		name      = flag.String("name", "rendezvous", "peer name")
		adminAddr = flag.String("admin", fmt.Sprintf("127.0.0.1:%d", admin.DefaultPort),
			"HTTP admin address serving /stats, /inspect, /health (empty disables)")
		logDir   = flag.String("log-dir", "", "directory for the durable event log (empty disables durability)")
		logSync  = flag.String("log-sync", "", `event log fsync policy: "none", "roll" or "always"`)
		replicas = flag.String("replica", "", "comma-separated addresses of the other replica-set members to anti-entropy-sync the event log with (requires -log-dir)")
		syncInt  = flag.Duration("sync-interval", 0, "anti-entropy digest cadence for -replica (0 = default 5s)")
	)
	flag.Parse()
	if err := run(*listen, *seeds, *name, *adminAddr, *logDir, *logSync, *replicas, *syncInt); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

func run(listen, seeds, name, adminAddr, logDir, logSync, replicas string, syncInt time.Duration) error {
	cfg := tps.Config{
		Name:                name,
		ListenTCP:           listen,
		Rendezvous:          true,
		AdminAddr:           adminAddr,
		LogDir:              logDir,
		LogSync:             logSync,
		ReplicaSyncInterval: syncInt,
	}
	if seeds != "" {
		for _, s := range strings.Split(seeds, ",") {
			cfg.Seeds = append(cfg.Seeds, strings.TrimSpace(s))
		}
	}
	if replicas != "" {
		if logDir == "" {
			return fmt.Errorf("-replica requires -log-dir: replication syncs the durable event log")
		}
		for _, s := range strings.Split(replicas, ",") {
			cfg.ReplicaSeeds = append(cfg.ReplicaSeeds, strings.TrimSpace(s))
		}
	}
	p, err := tps.NewPlatform(cfg)
	if err != nil {
		return err
	}
	defer p.Close()
	fmt.Printf("rendezvous %s up on %v (peers seed with tcp://<this-host>:%s)\n",
		p.PeerID(), p.Addresses(), hostPort(listen))
	if len(cfg.ReplicaSeeds) > 0 {
		fmt.Printf("replica set: syncing event log with %v\n", cfg.ReplicaSeeds)
	}
	if addr := p.AdminAddr(); addr != "" {
		fmt.Printf("admin endpoint on http://%s (/stats /metrics /inspect /trace /health)\n", addr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("shutting down")
	return nil
}

func hostPort(listen string) string {
	if i := strings.LastIndex(listen, ":"); i >= 0 {
		return listen[i+1:]
	}
	return listen
}
