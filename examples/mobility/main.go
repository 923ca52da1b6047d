// Mobility reproduces the paper's second motivating application
// (Section 1.1): tracking the location of a mobile device (e.g. a cellular
// telephone) in a replicated variable spread over location stores. The
// device updates its location with quorum writes as it moves between
// cells; callers look it up with quorum reads. Stale answers are still
// useful — the stale cell forwards the caller along the device's movement
// history — but a caller that learns nothing cannot make progress, so
// availability under store failures is the primary requirement.
//
// The demo moves a device through a random walk of cells, issues lookups
// (including under heavy store crashes), and reports freshness and the
// forwarding-chain lengths stale callers need.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"pqs"
)

const (
	stores = 64  // location-store replicas
	moves  = 200 // cell changes of the device
	calls  = 400 // lookups
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mobility:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()

	sys, err := pqs.New(pqs.Config{N: stores, Epsilon: 1e-2, Mode: pqs.ModeBenign})
	if err != nil {
		return err
	}
	fmt.Printf("location service: %d stores, quorum size %d, load %.2f, eps=%.1e\n\n",
		stores, sys.QuorumSize(), sys.Load(), sys.Epsilon())

	cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: stores, Seed: 7})
	if err != nil {
		return err
	}
	device, err := pqs.NewClient(pqs.ClientConfig{
		System:    sys,
		Transport: cluster.Transport(),
		WriterID:  1, // the device is the single writer of its own location
		Seed:      11,
	})
	if err != nil {
		return err
	}

	// The device walks between cells; cell history lets stale callers
	// forward along the trail.
	rng := rand.New(rand.NewSource(3))
	history := []int{rng.Intn(1000)}
	writeLocation := func(cell int) error {
		_, err := device.Write(ctx, "device/42/location", []byte(strconv.Itoa(cell)))
		return err
	}
	if err := writeLocation(history[0]); err != nil {
		return err
	}
	for i := 0; i < moves; i++ {
		next := rng.Intn(1000)
		history = append(history, next)
		if err := writeLocation(next); err != nil {
			return err
		}
	}
	current := history[len(history)-1]
	fmt.Printf("device moved %d times; now in cell %d\n", moves, current)

	// hopsBehind reports how many forwarding hops a caller needs: 0 for a
	// fresh answer, h when the answer is h moves old, -1 for no answer.
	hopsBehind := func(answer string, found bool) int {
		if !found {
			return -1
		}
		cell, err := strconv.Atoi(answer)
		if err != nil {
			return -1
		}
		for back := 0; back < len(history); back++ {
			if history[len(history)-1-back] == cell {
				return back
			}
		}
		return -1
	}

	caller, err := pqs.NewClient(pqs.ClientConfig{
		System:    sys,
		Transport: cluster.Transport(),
		Seed:      13,
	})
	if err != nil {
		return err
	}

	lookup := func(label string) error {
		fresh, forwarded, lost := 0, 0, 0
		maxHops := 0
		for i := 0; i < calls; i++ {
			r, err := caller.Read(ctx, "device/42/location")
			if err != nil {
				lost++
				continue
			}
			switch h := hopsBehind(string(r.Value), r.Found); {
			case h == 0:
				fresh++
			case h > 0:
				forwarded++
				if h > maxHops {
					maxHops = h
				}
			default:
				lost++
			}
		}
		fmt.Printf("%s: %d fresh, %d stale-but-forwardable (max %d hops), %d dead ends\n",
			label, fresh, forwarded, maxHops, lost)
		return nil
	}

	if err := lookup(fmt.Sprintf("%d lookups, all stores up      ", calls)); err != nil {
		return err
	}

	// Crash 40 of 64 stores: any strict quorum system over 64 stores is
	// disabled by 33 crashes; callers here still find the device.
	for id := 0; id < 40; id++ {
		cluster.Crash(id)
	}
	if err := lookup(fmt.Sprintf("%d lookups, 40/64 stores down  ", calls)); err != nil {
		return err
	}
	fmt.Println("\nstale answers forward the caller along the movement trail;")
	fmt.Println("what matters is that lookups keep returning SOMETHING despite massive store failures.")
	return nil
}
