package pqs

// The one-spelling guard: every config that drives the register client
// shares ONE access-tuning block (config.Tuning) and ONE cluster-shape
// block (config.Topology), and no config may grow a private copy of a knob.

import (
	"reflect"
	"testing"
	"time"

	"pqs/internal/chaos"
	"pqs/internal/config"
	"pqs/internal/load"
	"pqs/internal/sim"
)

// knobNames is every field name of the two shared blocks. A top-level field
// with one of these names on a client-driving config is a knob copy.
func knobNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, blk := range []reflect.Type{
		reflect.TypeOf(config.Tuning{}),
		reflect.TypeOf(config.Topology{}),
	} {
		for i := 0; i < blk.NumField(); i++ {
			names[blk.Field(i).Name] = true
		}
	}
	return names
}

// TestConfigKnobParity is the no-drift gate: each client-driving config
// embeds BOTH shared blocks (so every knob is reachable through them), and
// has no top-level field named like a knob beyond the listed exceptions.
// Adding a private tuning field to any config fails this test; extend
// config.Tuning instead.
func TestConfigKnobParity(t *testing.T) {
	knobs := knobNames(t)
	cases := []struct {
		typ reflect.Type
		// frozen lists the top-level fields allowed to share a knob's name.
		frozen []string
	}{
		{reflect.TypeOf(ClientConfig{}), []string{
			"Transport", // transport.Transport object, not the plane selector
		}},
		{reflect.TypeOf(chaos.Config{}), nil},
		{reflect.TypeOf(load.Config{}), nil},
	}
	for _, tc := range cases {
		t.Run(tc.typ.String(), func(t *testing.T) {
			frozen := map[string]bool{}
			for _, n := range tc.frozen {
				frozen[n] = true
			}
			embedded := map[string]bool{}
			var flat []string
			for i := 0; i < tc.typ.NumField(); i++ {
				f := tc.typ.Field(i)
				if f.Anonymous {
					embedded[f.Type.String()] = true
					continue
				}
				if knobs[f.Name] {
					flat = append(flat, f.Name)
					if !frozen[f.Name] {
						t.Errorf("%s.%s is a flat copy of a shared knob; set it on the embedded config.Tuning/Topology block instead",
							tc.typ, f.Name)
					}
				}
			}
			for _, blk := range []string{"config.Tuning", "config.Topology"} {
				if !embedded[blk] {
					t.Errorf("%s does not embed %s", tc.typ, blk)
				}
			}
			if len(flat) != len(tc.frozen) {
				t.Errorf("%s knob-named fields = %v, frozen list = %v",
					tc.typ, flat, tc.frozen)
			}
		})
	}
}

// TestNewClientRejectsUnsupportedTopology: a client has no use for the
// Topology fields that shape a cluster, so NewClient fails loudly on them
// instead of silently dropping a misconfiguration. Cells and CellVnodes are
// honored.
func TestNewClientRejectsUnsupportedTopology(t *testing.T) {
	sys, err := New(Config{N: 10, Q: 4})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		topo    Topology
		wantErr bool
	}{
		{"N", Topology{N: 10}, true},
		{"Transport", Topology{Transport: sim.TransportTCPVirtual}, true},
		{"LatencyMin", Topology{LatencyMin: time.Millisecond}, true},
		{"LatencyMax", Topology{LatencyMax: time.Millisecond}, true},
		{"Cells", Topology{Cells: 1, CellVnodes: 8}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), Topology: tc.topo})
			if (err != nil) != tc.wantErr {
				t.Errorf("NewClient(Topology %+v) error = %v, want error %v", tc.topo, err, tc.wantErr)
			}
		})
	}
}
