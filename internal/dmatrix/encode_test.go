package dmatrix

import (
	"reflect"
	"testing"

	"trajmotif/internal/geo"
)

func codecPoints(n int, seed float64) []geo.Point {
	pts := make([]geo.Point, n)
	for k := range pts {
		pts[k] = geo.Point{Lat: 39 + seed*0.01 + float64(k)*0.001, Lng: 116 + float64(k%7)*0.002}
	}
	return pts
}

func TestMatrixMarshalRoundTrip(t *testing.T) {
	a := codecPoints(9, 1)
	b := codecPoints(7, 2)
	for _, tc := range []struct {
		name string
		m    *Matrix
	}{
		{"self", ComputeSelf(a, geo.Haversine)},
		{"cross", ComputeCross(a, b, geo.Haversine)},
		{"single", FromRows([][]float64{{42}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Unmarshal(tc.m.Marshal())
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(got, tc.m) {
				t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, tc.m)
			}
			if got.Bytes() != tc.m.Bytes() {
				t.Fatalf("Bytes: got %d want %d", got.Bytes(), tc.m.Bytes())
			}
		})
	}
}

func TestMatrixUnmarshalRejectsCorruption(t *testing.T) {
	enc := ComputeSelf(codecPoints(5, 3), geo.Haversine).Marshal()
	// Every strict prefix must fail: the grid either loses header or
	// value bytes.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Unmarshal(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Any storage mode but 0 (mode 1 was the retired float32 layout) and
	// an absurd dimension header must fail too.
	bad := append([]byte(nil), enc...)
	for _, mode := range []byte{1, 7} {
		bad[0] = mode
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("storage mode %d accepted", mode)
		}
	}
	bad = append([]byte(nil), enc...)
	for k := 1; k < 9; k++ {
		bad[k] = 0xff
	}
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("implausible dimensions accepted")
	}
}
