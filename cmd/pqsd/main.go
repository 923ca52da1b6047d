// Command pqsd runs one replica server over TCP. A deployment runs n of
// these (one per server in the universe) and points clients at them with
// pqs-cli or the library's Dial. With -peers it also runs the epidemic
// anti-entropy engine of Section 1.1, lazily spreading updates between
// replicas.
//
// Usage:
//
//	pqsd -id 0 -listen 127.0.0.1:7000
//	pqsd -id 1 -listen 127.0.0.1:7001 \
//	     -peers 0=127.0.0.1:7000,2=127.0.0.1:7002 -gossip-interval 500ms
//	pqsd -id 0 -listen 127.0.0.1:7000 -admin 127.0.0.1:7100
//	pqsd -cell 2 -cell-size 25 -id 3 -listen 127.0.0.1:7053
//	                               # multi-cell layout: global id 53
//
// With -admin, the replica serves an HTTP observability endpoint:
// GET /stats returns store shard counters, TCP frame/flush-coalescing
// counters and binary codec counters as JSON; GET /healthz returns 200.
// (Client-side access counters — spares promoted, early completions, late
// repairs — live on clients; pqs-cli prints them with -stats.)
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pqs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pqsd:", err)
		os.Exit(1)
	}
}

func run() error {
	id := flag.Int("id", 0, "server id (position in the universe, or within the cell with -cell-size)")
	cell := flag.Int("cell", 0, "quorum cell this replica belongs to (multi-cell keyspace layouts)")
	cellSize := flag.Int("cell-size", 0, "replicas per cell; when set, the global server id is cell·cell-size+id")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	admin := flag.String("admin", "", "admin HTTP address serving /stats and /healthz (optional)")
	peers := flag.String("peers", "", "comma-separated id=host:port peers for gossip (optional)")
	fanout := flag.Int("fanout", 1, "gossip peers contacted per round")
	interval := flag.Duration("gossip-interval", time.Second, "gossip round period")
	seed := flag.Int64("diffusion-seed", 0, "seed for gossip peer selection (0 draws from crypto/rand)")
	codecStr := flag.String("codec", "binary", "wire codec: binary or binary-flate (compressed WAN profile); must match clients and peers")
	flag.Parse()

	// Multi-cell layouts address replicas by global id: cell i of size n
	// owns ids [i·n, (i+1)·n). -cell/-cell-size compute the global id so a
	// deployment can number replicas within their cell.
	globalID := *id
	if *cellSize > 0 {
		if *cell < 0 || *id < 0 || *id >= *cellSize {
			return fmt.Errorf("-id %d must be in [0, cell-size %d) when -cell-size is set", *id, *cellSize)
		}
		globalID = *cell**cellSize + *id
	} else if *cell != 0 {
		return fmt.Errorf("-cell requires -cell-size")
	}

	codec, err := pqs.ParseCodec(*codecStr)
	if err != nil {
		return err
	}
	srv, err := pqs.ListenAndServeConfig(pqs.ServerConfig{
		ID:            globalID,
		Addr:          *listen,
		DiffusionSeed: *seed,
		Codec:         codec,
	})
	if err != nil {
		return err
	}
	if *cellSize > 0 {
		fmt.Printf("pqsd: replica %d (cell %d, member %d) serving on %s\n", globalID, *cell, *id, srv.Addr())
	} else {
		fmt.Printf("pqsd: replica %d serving on %s\n", globalID, srv.Addr())
	}

	if *admin != "" {
		al, err := net.Listen("tcp", *admin)
		if err != nil {
			return fmt.Errorf("admin listen %s: %w", *admin, err)
		}
		adminSrv := &http.Server{Handler: srv.AdminHandler()}
		go func() {
			if err := adminSrv.Serve(al); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "pqsd: admin:", err)
			}
		}()
		defer adminSrv.Close()
		fmt.Printf("pqsd: admin endpoint on http://%s/stats\n", al.Addr())
	}

	if *peers != "" {
		addrs, err := parsePeers(*peers)
		if err != nil {
			return err
		}
		if err := srv.StartDiffusion(addrs, *fanout, *interval); err != nil {
			return err
		}
		fmt.Printf("pqsd: gossiping with %d peers every %s\n", len(addrs), *interval)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("pqsd: shutting down")
	return srv.Close()
}

func parsePeers(s string) (map[int]string, error) {
	out := make(map[int]string)
	for _, pair := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad peer spec %q (want id=host:port)", pair)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", id, err)
		}
		out[n] = addr
	}
	return out, nil
}
