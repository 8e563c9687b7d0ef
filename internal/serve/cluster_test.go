package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"trajmotif/internal/cluster"
	"trajmotif/internal/geo"
)

// TestClusterMatchesLibrary: a /cluster response equals the library
// call on the same inputs, repeat requests are byte-identical to the
// first, and clustering leaves the store's endpoint memo (a /join-only
// structure) untouched.
func TestClusterMatchesLibrary(t *testing.T) {
	ts, srv := harness(t)
	tr := fixture(t, 9, 150)
	id := upload(t, ts, tr)

	post := func() []byte {
		body, err := json.Marshal(clusterRequest{ID: id, Window: 24, Eps: 800})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/cluster", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d err %v: %s", resp.StatusCode, err, raw)
		}
		return raw
	}

	first := post()
	second := post()
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat /cluster diverged:\n%s\n%s", first, second)
	}

	// The handler result must match the library call exactly — spans
	// and membership alike.
	plain, err := cluster.Subtrajectories(tr, 24, 800, &cluster.Options{Dist: geo.Haversine})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]clusterResponse, len(plain))
	for k, c := range plain {
		want[k] = clusterResponse{Representative: spanJSON{c.Representative.Start, c.Representative.End}}
		for _, m := range c.Members {
			want[k].Members = append(want[k].Members, spanJSON{m.Start, m.End})
		}
	}
	var got []clusterResponse
	if err := json.Unmarshal(first, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/cluster differs from direct clustering:\n got %+v\nwant %+v", got, want)
	}

	if st := srv.Backend().Stats(); st.PairDistsBuilt != 0 || st.PairDistsReused != 0 || st.Artifacts != 0 {
		t.Fatalf("/cluster touched the artifact cache: %+v", st)
	}
}
