package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// marshalIndentBody is marshalBody's encoding/json path, the reference
// the one-pass estimate encoder is held to.
func marshalIndentBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkEncodeEstimate fails unless encodeEstimate writes exactly the
// bytes, or the error, of json.MarshalIndent plus a newline.
func checkEncodeEstimate(t *testing.T, resp EstimateResponse) {
	t.Helper()
	got, gotErr := encodeEstimate(&resp)
	want, wantErr := marshalIndentBody(resp)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, MarshalIndent %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeEstimate wrote\n%s\nMarshalIndent\n%s", got, want)
	}
}

// FuzzEncodeEstimateMatchesMarshalIndent holds the one-pass estimate
// encoder to encoding/json byte for byte. The served estimate goldens
// seed the response shapes; the fuzzer then plants its string (any
// bytes, invalid UTF-8 included) in every string position and a map
// key, its float in every float field, and turns slices and maps nil or
// empty by the mask.
func FuzzEncodeEstimateMatchesMarshalIndent(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "estimate_*.golden.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, "", 0.0, uint8(0))
	}
	f.Add([]byte(`{"stages":[{}],"states":[{"running":["a"],"parallelism":{"a":1}}]}`), "<a&b> \xff\"\\\n\x01", 1e-7, uint8(0))
	f.Add([]byte(`{"stages":[{}],"states":[{"parallelism":{"b":2,"a":1}}]}`), "x", math.Inf(1), uint8(0x3f))
	f.Add([]byte(`{"stages":[],"states":[{}]}`), " ", 1e21, uint8(0x15))
	f.Fuzz(func(t *testing.T, data []byte, s string, x float64, mask uint8) {
		var resp EstimateResponse
		if json.Unmarshal(data, &resp) != nil {
			return
		}
		if mask&1 != 0 {
			resp.Workflow, resp.MakespanS = s, x
		}
		if len(resp.Stages) > 0 && mask&2 != 0 {
			st := &resp.Stages[0]
			st.Job, st.Stage, st.Bottleneck = s, s, s
			st.StartS, st.EndS, st.TaskTimeS = x, -x, x/3
		}
		if len(resp.States) > 0 {
			st := &resp.States[len(resp.States)-1]
			if mask&4 != 0 {
				st.Running = append(st.Running, s)
				st.StartS, st.EndS = x, x*1e-9
			}
			if mask&8 != 0 {
				if st.Parallelism == nil {
					st.Parallelism = map[string]int{}
				}
				st.Parallelism[s] = int(mask) - 100
			}
			switch mask >> 4 & 3 {
			case 1:
				st.Running, st.Parallelism = nil, nil
			case 2:
				st.Running, st.Parallelism = []string{}, map[string]int{}
			}
		}
		switch mask >> 6 {
		case 1:
			resp.Stages, resp.States = nil, nil
		case 2:
			resp.Stages, resp.States = []StageBody{}, []StateBody{}
		}
		checkEncodeEstimate(t, resp)
	})
}

// TestEncodeEstimateFloatForms: every float form encoding/json writes
// (zero and negative zero, the 'e' cutoffs on both sides, the smallest
// denormal) and its error on NaN and infinity.
func TestEncodeEstimateFloatForms(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300, 5e-324, 123456789.123, math.NaN(), math.Inf(-1)} {
		checkEncodeEstimate(t, EstimateResponse{Workflow: "w", MakespanS: x})
	}
}
