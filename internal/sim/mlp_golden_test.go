package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/workload"
)

// mlpGoldenDigests are the SHA-256 digests of json.Marshal(Result) for
// every cell of TestMLPResultsGolden, keyed
// "<script>/<scheme>/<fidelity>/mlp-<off|on>". The relative MLP contracts
// (off is inert, on is fidelity- and pool-size-invariant) pass for a change
// that moves every mode together; these pin the absolute numbers, so a
// refactor of the issue paths must leave them untouched.
var mlpGoldenDigests = map[string]string{
	"fidelity-rand-1/baseline/full/mlp-off":          "e9b011787e2bd1ab93c5a0954f57de980f8c98b97db4b9181ef4fe8fc9161601",
	"fidelity-rand-1/baseline/full/mlp-on":           "a8b41194ebc929869d9fbc35da6cba5c834681c0cde27459798649467e573e6b",
	"fidelity-rand-1/baseline/timing/mlp-off":        "e9b011787e2bd1ab93c5a0954f57de980f8c98b97db4b9181ef4fe8fc9161601",
	"fidelity-rand-1/baseline/timing/mlp-on":         "a8b41194ebc929869d9fbc35da6cba5c834681c0cde27459798649467e573e6b",
	"fidelity-rand-1/lelantus-cow/full/mlp-off":      "c9e5a773d9f576acb57e140c6f4c7f7ae2fa931a15a0868880f03fd36ae8acdc",
	"fidelity-rand-1/lelantus-cow/full/mlp-on":       "728b0c368f18a0b272fbf34be1d2fa9a834a8080e8fe71428b2628ce7d781b1e",
	"fidelity-rand-1/lelantus-cow/timing/mlp-off":    "c9e5a773d9f576acb57e140c6f4c7f7ae2fa931a15a0868880f03fd36ae8acdc",
	"fidelity-rand-1/lelantus-cow/timing/mlp-on":     "728b0c368f18a0b272fbf34be1d2fa9a834a8080e8fe71428b2628ce7d781b1e",
	"fidelity-rand-1/lelantus/full/mlp-off":          "b28a4f40e8906ef6bf607762c7da0f687176c932e93f73284c3535873ee7cba8",
	"fidelity-rand-1/lelantus/full/mlp-on":           "c53e9f464b315b582b139cd78dc5e7a1e2e139115ed7dea500db5cf15afd597c",
	"fidelity-rand-1/lelantus/timing/mlp-off":        "b28a4f40e8906ef6bf607762c7da0f687176c932e93f73284c3535873ee7cba8",
	"fidelity-rand-1/lelantus/timing/mlp-on":         "c53e9f464b315b582b139cd78dc5e7a1e2e139115ed7dea500db5cf15afd597c",
	"fidelity-rand-1/silent-shredder/full/mlp-off":   "fdebc007acf5d5896512857fcfff76ca3184f937f2bc76e3d6133af941500901",
	"fidelity-rand-1/silent-shredder/full/mlp-on":    "e26df92c282cb06a723b898f436e903366c4794083a104c02c23816302a26ac3",
	"fidelity-rand-1/silent-shredder/timing/mlp-off": "fdebc007acf5d5896512857fcfff76ca3184f937f2bc76e3d6133af941500901",
	"fidelity-rand-1/silent-shredder/timing/mlp-on":  "e26df92c282cb06a723b898f436e903366c4794083a104c02c23816302a26ac3",
	"fidelity-rand-2/baseline/full/mlp-off":          "40475862e80252f934f3d27a8ea4257bd19bee596998b3031f9f7f201bd2744c",
	"fidelity-rand-2/baseline/full/mlp-on":           "da0ec0fc670b9da07afd8a8148e7890c600655ae981c2f1b5c6917c8b37486cf",
	"fidelity-rand-2/baseline/timing/mlp-off":        "40475862e80252f934f3d27a8ea4257bd19bee596998b3031f9f7f201bd2744c",
	"fidelity-rand-2/baseline/timing/mlp-on":         "da0ec0fc670b9da07afd8a8148e7890c600655ae981c2f1b5c6917c8b37486cf",
	"fidelity-rand-2/lelantus-cow/full/mlp-off":      "abfadef548c6f4f9dd5d8d11bb1c6b91c5c6bac14dd8ee003baa61c96303404d",
	"fidelity-rand-2/lelantus-cow/full/mlp-on":       "1e49849a44df211a820b9111c4c5684b18391fb71ce0d61d0ff924893ff2af94",
	"fidelity-rand-2/lelantus-cow/timing/mlp-off":    "abfadef548c6f4f9dd5d8d11bb1c6b91c5c6bac14dd8ee003baa61c96303404d",
	"fidelity-rand-2/lelantus-cow/timing/mlp-on":     "1e49849a44df211a820b9111c4c5684b18391fb71ce0d61d0ff924893ff2af94",
	"fidelity-rand-2/lelantus/full/mlp-off":          "beafc817b19e5ba6eade74b957b17aa188254091c58fe1a619e59885550604a8",
	"fidelity-rand-2/lelantus/full/mlp-on":           "4d67b0a1b8177a45999beca73bd5dd44d0686cd5b8a84eedb9a9866471de4101",
	"fidelity-rand-2/lelantus/timing/mlp-off":        "beafc817b19e5ba6eade74b957b17aa188254091c58fe1a619e59885550604a8",
	"fidelity-rand-2/lelantus/timing/mlp-on":         "4d67b0a1b8177a45999beca73bd5dd44d0686cd5b8a84eedb9a9866471de4101",
	"fidelity-rand-2/silent-shredder/full/mlp-off":   "df10dfa33760911ea9cae17b4085adcf0cd346da34acea4544efa788aa67e837",
	"fidelity-rand-2/silent-shredder/full/mlp-on":    "c92f8ce3b4fe566e3298f89b677599fc1a31428529df269497cdcb8b1c33a764",
	"fidelity-rand-2/silent-shredder/timing/mlp-off": "df10dfa33760911ea9cae17b4085adcf0cd346da34acea4544efa788aa67e837",
	"fidelity-rand-2/silent-shredder/timing/mlp-on":  "c92f8ce3b4fe566e3298f89b677599fc1a31428529df269497cdcb8b1c33a764",
	"fidelity-rand-3/baseline/full/mlp-off":          "831d2c515ee5bb26d49cb59ea656dfca88f565348796acae35799753b80c5c94",
	"fidelity-rand-3/baseline/full/mlp-on":           "0503b966f2d0515e214a708885586fa2574e56fe02797e65b9338060ce217a9e",
	"fidelity-rand-3/baseline/timing/mlp-off":        "831d2c515ee5bb26d49cb59ea656dfca88f565348796acae35799753b80c5c94",
	"fidelity-rand-3/baseline/timing/mlp-on":         "0503b966f2d0515e214a708885586fa2574e56fe02797e65b9338060ce217a9e",
	"fidelity-rand-3/lelantus-cow/full/mlp-off":      "fc0f6000dcccb9bb29beecd3fc525b409e81afac0da40e2eaa5c79238f3cce5e",
	"fidelity-rand-3/lelantus-cow/full/mlp-on":       "4684b6584f0963ce209b1cccc4a5c347c7e3cefa327022dd8b2173cd26bae0c2",
	"fidelity-rand-3/lelantus-cow/timing/mlp-off":    "fc0f6000dcccb9bb29beecd3fc525b409e81afac0da40e2eaa5c79238f3cce5e",
	"fidelity-rand-3/lelantus-cow/timing/mlp-on":     "4684b6584f0963ce209b1cccc4a5c347c7e3cefa327022dd8b2173cd26bae0c2",
	"fidelity-rand-3/lelantus/full/mlp-off":          "6467756e91039a012f99f954baed6dc11e9f43b2b72e66de785468340f0f13cd",
	"fidelity-rand-3/lelantus/full/mlp-on":           "45c6fc8d5e7f94d0b922d2cb8c9ffb47edf7b3fdc145e63e9fb40aac39e295b0",
	"fidelity-rand-3/lelantus/timing/mlp-off":        "6467756e91039a012f99f954baed6dc11e9f43b2b72e66de785468340f0f13cd",
	"fidelity-rand-3/lelantus/timing/mlp-on":         "45c6fc8d5e7f94d0b922d2cb8c9ffb47edf7b3fdc145e63e9fb40aac39e295b0",
	"fidelity-rand-3/silent-shredder/full/mlp-off":   "d231c5c49a491ea673bb1454c7e018a2dbb8f55fc83d56c513ee03aac3230cfd",
	"fidelity-rand-3/silent-shredder/full/mlp-on":    "dee936bbcdc93f23f2b72bfd6ecd7bc8eef04d3dd3b1c2f224695e93160aafde",
	"fidelity-rand-3/silent-shredder/timing/mlp-off": "d231c5c49a491ea673bb1454c7e018a2dbb8f55fc83d56c513ee03aac3230cfd",
	"fidelity-rand-3/silent-shredder/timing/mlp-on":  "dee936bbcdc93f23f2b72bfd6ecd7bc8eef04d3dd3b1c2f224695e93160aafde",
	"mlp-overflow/baseline/full/mlp-off":             "ca668448c3a4d8fa745a662044ebe1cccef3b55ae5233dd0093e97e8de189fe1",
	"mlp-overflow/baseline/full/mlp-on":              "42f00d524b0b8a7a5924ec35ac15b2760c50800cf0e006e5831d01c1437cd7c6",
	"mlp-overflow/baseline/timing/mlp-off":           "ca668448c3a4d8fa745a662044ebe1cccef3b55ae5233dd0093e97e8de189fe1",
	"mlp-overflow/baseline/timing/mlp-on":            "42f00d524b0b8a7a5924ec35ac15b2760c50800cf0e006e5831d01c1437cd7c6",
	"mlp-overflow/lelantus-cow/full/mlp-off":         "0f08ffe186ff9160e8f27b90180a284485949488b2f66149448473ee109def1f",
	"mlp-overflow/lelantus-cow/full/mlp-on":          "bff8d9b7a5ee5cc2bef1bb5ac610b436e484b19f9c61a7f86f36afc58214de6b",
	"mlp-overflow/lelantus-cow/timing/mlp-off":       "0f08ffe186ff9160e8f27b90180a284485949488b2f66149448473ee109def1f",
	"mlp-overflow/lelantus-cow/timing/mlp-on":        "bff8d9b7a5ee5cc2bef1bb5ac610b436e484b19f9c61a7f86f36afc58214de6b",
	"mlp-overflow/lelantus/full/mlp-off":             "d6a0858d7fb5cfec08380c0e16ee001717eba5212fbd659abe6c35a938a3943e",
	"mlp-overflow/lelantus/full/mlp-on":              "6db36ecc54f9ecd531fbc2c6fe2691c468bf80f6cee08b270800118b4fb1c8cf",
	"mlp-overflow/lelantus/timing/mlp-off":           "d6a0858d7fb5cfec08380c0e16ee001717eba5212fbd659abe6c35a938a3943e",
	"mlp-overflow/lelantus/timing/mlp-on":            "6db36ecc54f9ecd531fbc2c6fe2691c468bf80f6cee08b270800118b4fb1c8cf",
	"mlp-overflow/silent-shredder/full/mlp-off":      "bd3aa6389abf6162f92f42dbd5e6dfe3d630666f6e460b12de3b3fce34f8a388",
	"mlp-overflow/silent-shredder/full/mlp-on":       "3ec21a6a741acae9942ab5a3ce00bb0d4f36433afc6dd6a5aad9f3c550de0e99",
	"mlp-overflow/silent-shredder/timing/mlp-off":    "bd3aa6389abf6162f92f42dbd5e6dfe3d630666f6e460b12de3b3fce34f8a388",
	"mlp-overflow/silent-shredder/timing/mlp-on":     "3ec21a6a741acae9942ab5a3ce00bb0d4f36433afc6dd6a5aad9f3c550de0e99",
}

// TestMLPResultsGolden pins absolute simulated results under both MLP
// settings: random scripts (seed 3 runs on huge pages) and the overflow
// script, over every scheme and both fidelities. It refuses to pass unless
// the cells ran a re-encryption sweep and a Baseline full-page copy, the
// two engines whose issue rule differs between the models.
func TestMLPResultsGolden(t *testing.T) {
	type cell struct {
		seed   int64
		script workload.Script
	}
	cells := []cell{{0, overflowScript()}}
	for _, seed := range []int64{1, 2, 3} {
		cells = append(cells, cell{seed, randomScript(seed)})
	}
	got := map[string]string{}
	var overflows, baselineCopies uint64
	for _, c := range cells {
		for _, s := range core.Schemes() {
			for _, f := range []core.Fidelity{core.FidelityFull, core.FidelityTiming} {
				for _, mlp := range []bool{false, true} {
					cfg := fidelityConfig(s, f, c.seed)
					mode := "mlp-off"
					if mlp {
						cfg = mlpConfig(s, f, c.seed, 2)
						mode = "mlp-on"
					}
					key := fmt.Sprintf("%s/%v/%v/%s", c.script.Name, s, f, mode)
					res, err := RunWith(cfg, c.script)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(b)
					got[key] = hex.EncodeToString(sum[:])
					overflows += res.Engine.Overflows
					if s == core.Baseline {
						baselineCopies += res.Kernel.PagesCopied
					}
				}
			}
		}
	}
	if overflows == 0 || baselineCopies == 0 {
		t.Fatalf("cells ran %d overflow sweeps and %d Baseline page copies: the engines under pin went untested",
			overflows, baselineCopies)
	}
	if len(got) != len(mlpGoldenDigests) {
		t.Errorf("%d cells, %d golden digests", len(got), len(mlpGoldenDigests))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want := mlpGoldenDigests[k]; got[k] != want {
			t.Errorf("%q: digest %s, want %s", k, got[k], want)
		}
	}
}
