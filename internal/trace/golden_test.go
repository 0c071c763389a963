package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"lelantus/internal/workload"
)

// goldenDigests are the SHA-256 digests of the LELT1 and JSON encodings of
// every catalogue script at seed 1, keyed "<workload>/<page mode>/<format>".
// The on-disk formats are independent of workload.Op's in-memory layout, so
// these never change unless a wire format does (which would need a new
// magic).
var goldenDigests = map[string]string{
	"boot/4KB/lelt1":      "4469d78214ca9e48dd1b4d8d78b519476e722869da7bd8eb4a8fc9bf0c582224",
	"boot/4KB/json":       "11eb12c1d67f4407abfd7adbafbd8b58efd6dfe13161b507351fd7b8b9e660b9",
	"boot/2MB/lelt1":      "48e263ba4cc5d33b5b94fc8abba74549760eaefc2fa5e2b711fd6d78016e4ff6",
	"boot/2MB/json":       "d7db1ea2794baa92c8e668450a17d540fa2b0d1186e9d32da67b05edb73b5119",
	"compile/4KB/lelt1":   "ec999da580da8434eaf733c1a5ae1075da5ef788d493f885f758ff7eb876baba",
	"compile/4KB/json":    "012cd5ba76221a88c3b0b00010aa91cfe027edbf70fe92c84bba55ca342f621c",
	"compile/2MB/lelt1":   "40fa2abca60e366765dd009ee8bb5dd7c9029d5681c7affc99a39653e9aefd3b",
	"compile/2MB/json":    "8c7c6eee58a5340686e84297da7efc38eac7fda36a6fd2f6c55dcd4b57a8d194",
	"forkbench/4KB/lelt1": "fb22a80ef23ca74446b322e8722ffebe5c51a6118bdd68d62aed29bd0be190aa",
	"forkbench/4KB/json":  "8f37375845d8f52cc1f0f903f67f35cb9ffe5d93e0bf90eaf9db25af8d7a1a1a",
	"forkbench/2MB/lelt1": "1170f0e0a9e283327a4f0e481536bca61a439989dabb3c6965b455071fb098db",
	"forkbench/2MB/json":  "05a89e462310b6279da98d01a0d407160b37f05e9d2ec90c413896e530516506",
	"redis/4KB/lelt1":     "c31614736c3c9a69138cb1f2fb0416d5195bc4a084acdbcde76a4facbcf2bd4f",
	"redis/4KB/json":      "d42bfabf46dd540e3dc513a8e7c79dc7b76036c306dbb2e4e7641ce46cb28f87",
	"redis/2MB/lelt1":     "4f6299d28851839f3d6fed639cd8d9e6f70eb380b4a483bf11b3cac49c9196b0",
	"redis/2MB/json":      "bdea36b275d3d74a030ad098b97741d53ce60e670d678bf4761a2fe2533e8b4d",
	"mariadb/4KB/lelt1":   "d48ff664eeec9873fd14257d253da955aee7cac88c5141e4d7a89ac6e1b9117a",
	"mariadb/4KB/json":    "7faa2234670d44117090bd31b33dd57b2f5df9260ffb9cfc957a5771f168e4d7",
	"mariadb/2MB/lelt1":   "1a32154272d25ef5ce86af64f7008e91baf053360d645567888bafa799d0841c",
	"mariadb/2MB/json":    "eff53a438aaaf36eb4c07a2ac76dcf654426d3e4fb7652c9e7eaf940f18ac989",
	"shell/4KB/lelt1":     "fd0b4148c5e974b568efc33c80f2bb6ba9d41f8f47ea36147d221e021bb41bfd",
	"shell/4KB/json":      "119b0263cf7a1c28fd825cd130b50746e14050d00ef0e335b5a20541f3843f51",
	"shell/2MB/lelt1":     "04038ce00f018dd51420ea982b1b1bbfe383f9afbe80ebb4208b94546e179807",
	"shell/2MB/json":      "4eb438a3caabfaab36608328ff9121b0a485332edfb0a89c2f61021326cb7753",
	"non-copy/4KB/lelt1":  "6e827dd0c272d019887d061947548a064a33b8c7fbb620ad9217004ac862f5f2",
	"non-copy/4KB/json":   "624768d62ce417c64cbe02161a74bb84b9a663ea79eae5f30ee463bfd97fdae5",
	"non-copy/2MB/lelt1":  "c97b1cdff3f945e8357f33143e32ded2d64a7a384361d42002458d5ede2b23ad",
	"non-copy/2MB/json":   "831ed31084275cec2df2f79c107b837a8c73a5d6734b9a84aa1b8c1cc3917040",
}

func TestCatalogueEncodingsGolden(t *testing.T) {
	got := map[string]string{}
	for _, spec := range workload.Catalogue() {
		for _, huge := range []bool{false, true} {
			s := spec.Build(huge, 1)
			mode := "4KB"
			if huge {
				mode = "2MB"
			}
			key := spec.Name + "/" + mode
			var bin bytes.Buffer
			if err := Write(&bin, s); err != nil {
				t.Fatal(err)
			}
			got[key+"/lelt1"] = digest(bin.Bytes())
			back, err := Read(&bin)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !reflect.DeepEqual(back, s) {
				t.Fatalf("%s: Read(Write(s)) != s", key)
			}
			h := sha256.New()
			if err := WriteJSON(h, s); err != nil {
				t.Fatal(err)
			}
			got[key+"/json"] = hex.EncodeToString(h.Sum(nil))
		}
	}
	if len(got) != len(goldenDigests) {
		t.Fatalf("%d encodings, %d golden digests", len(got), len(goldenDigests))
	}
	for k, want := range goldenDigests {
		if got[k] != want {
			t.Errorf("%s: digest %s, want %s", k, got[k], want)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
