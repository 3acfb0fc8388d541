package sampling

import (
	"math/rand"
	"testing"
)

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	for i := 0; i < 60; i++ {
		X = append(X, []float64{rng.Float64() * 0.1, rng.Float64() * 0.1})
	}
	for i := 0; i < 60; i++ {
		X = append(X, []float64{10 + rng.Float64()*0.1, 10 + rng.Float64()*0.1})
	}
	assign, cent, _ := KMeans(X, 2, DefaultSpec().Seed)
	if len(cent) != 2 {
		t.Fatalf("centroids %d", len(cent))
	}
	for i := 1; i < 60; i++ {
		if assign[i] != assign[0] {
			t.Fatal("cluster 1 split")
		}
	}
	for i := 61; i < 120; i++ {
		if assign[i] != assign[60] {
			t.Fatal("cluster 2 split")
		}
	}
	if assign[0] == assign[60] {
		t.Fatal("clusters merged")
	}
}

func TestKMeansDegenerateInputs(t *testing.T) {
	seed := DefaultSpec().Seed

	// k above the number of distinct rows: the duplicate centers empty out
	// and are dropped, so one cluster holds every row at zero SSE.
	same := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	assign, cent, sse := KMeans(same, 3, seed)
	if len(cent) != 1 || sse != 0 {
		t.Fatalf("identical rows, k = 3: %d centroids, sse %v", len(cent), sse)
	}
	for i, a := range assign {
		if a != 0 {
			t.Errorf("row %d in cluster %d", i, a)
		}
	}

	// k = len(X): every row is its own cluster.
	X := [][]float64{{1, 2}, {3, 4}}
	assign, cent, sse = KMeans(X, 2, seed)
	if len(cent) != 2 || len(assign) != 2 || assign[0] == assign[1] || sse != 0 {
		t.Errorf("k = n = 2: %d centroids, assign %v, sse %v", len(cent), assign, sse)
	}

	// k = 1: the one centroid is the mean.
	assign, cent, sse = KMeans(X, 1, seed)
	if len(cent) != 1 || assign[0] != 0 || assign[1] != 0 {
		t.Fatalf("k = 1: %d centroids, assign %v", len(cent), assign)
	}
	if cent[0][0] != 2 || cent[0][1] != 3 || sse != 4 {
		t.Errorf("k = 1: centroid %v, sse %v; want [2 3], 4", cent[0], sse)
	}
}
