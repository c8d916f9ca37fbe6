package serve

import (
	"reflect"
	"testing"
)

// FuzzDecode: Decode never panics, and for any body it accepts the
// normalized spec is a fixed point of Normalize with an unchanged Hash. Run
// with
//
//	go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/serve/
func FuzzDecode(f *testing.F) {
	for _, body := range []string{
		`{"system":"cichlid"}`,
		`{"system":"RICC","workload":"p2p","strategies":["pinned","pipelined(262144)"],"sizes":[65536,1048576]}`,
		`{"system":"hopper","workload":"himeno","impls":["serial","clmpi"],"nodes":[1,2],"size":"S","iters":3}`,
		`{"system":"ricc","workload":"matchscale","ranks":[64,128],"parallel_world":2}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		norm, h, err := Decode(body)
		if err != nil {
			return
		}
		again, err := Normalize(norm)
		if err != nil {
			t.Fatalf("normalizing a normalized spec: %v\n%+v", err, norm)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", norm, again)
		}
		if h2 := Hash(again); h2 != h {
			t.Fatalf("hash changed on renormalizing: %s != %s", h2, h)
		}
	})
}
