package config

import "testing"

func TestClusterTotal(t *testing.T) {
	if got := (Cluster{N: 25}).Total(); got != 25 {
		t.Fatalf("Total single cell = %d, want 25", got)
	}
	if got := (Cluster{Cells: 4, N: 25}).Total(); got != 100 {
		t.Fatalf("Total 4 cells = %d, want 100", got)
	}
}
