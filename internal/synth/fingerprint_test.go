package synth

import (
	"fmt"
	"testing"
)

// TestFingerprintsPinned pins the content hash of every benchmark program
// and of three random programs. Refactors of the generators must keep
// every emitted image byte-identical; a changed hash here means a changed
// workload, and every result computed from it moves.
func TestFingerprintsPinned(t *testing.T) {
	want := []struct{ name, fp string }{
		{"comp", "2b9eeae5d442dcef8a42cfc79679fb843f6055733a83180361fcb9cacc5b620b"},
		{"gcc", "a3be7ecfbe7a5971b21733fa914f07f5ad7a9b31d77d17aaf513164a2161b729"},
		{"go", "e46f1b9455a6abf98a4686c733c501499ce69cda640a1ee9cd2490c077b95f05"},
		{"ijpeg", "4ed691d8c986745a7caac21b5e89413b962517575377f3d9fa1b518e2d8948a7"},
		{"li", "06b4ba4fd3036f1a2ebd40ce7debaabd8ac4cf9268d99bd71529d0e1f9de22bc"},
		{"m88ksim", "6e9d62f22c02fcfdb75898bf4da710fc5b41e2ae11a82bea0685c8ff701eecde"},
		{"perl", "d60a2f1985bbad4b8ba94321cbcd6c06cb1baac1abc1868f4822887bade6a7ad"},
		{"vortex", "84aff6c4b96c4cff98c24cfcb422ea8b5d4bf3f5a3a5d1d96378b47c31913b6c"},
		{"bzip2_2k", "0a9fcd0f172f098d4f1133dfe4fc856f8d25e348e2271b4469a736a983888fde"},
		{"crafty_2k", "25716af5e862dd11068bb7a74d86207c19a37ee75c0ca4060a44cb124387324e"},
		{"eon_2k", "15ccb4348ee4a0f9785bd9b20b0f43d894f51928dab0b52ad9974502d28ae24f"},
		{"gap_2k", "3d50f85d7dcd351686b3a9e19e4407c3cc9f78b78d63882c0a3c11af68e8e2cf"},
		{"gcc_2k", "2e1d0817fc53a080f01d485791d41849f1471305b7a2c55405695048e6721d4c"},
		{"gzip_2k", "0ab0e713d0c4c02ced446b5335e30f8ad8bcf6a380636e18584fe6f3c80e80cd"},
		{"mcf_2k", "760e149fafe6d2f9a6edeabc394e44865d2b8d90519827f13b50991e442e0b5a"},
		{"parser_2k", "0068dcdf79c1ef709abfa00ff2df1e597d8dc4792f7e0ae2dd1dd3515ac3c60e"},
		{"perlbmk_2k", "e90206652c32bfe1e1c6e5d005c7a67b25b17d91d546603ee8f1e269a9714cbe"},
		{"twolf_2k", "a60c16dbe2a8b4c4272684eee6be7d709f584fafb2da00222926dc076a6192dd"},
		{"vortex_2k", "0ab415925d2239310204cb8e72d9cbb62e87cb3b129b24629f43cafcc63609a2"},
		{"vpr_2k", "be11a4b6ed8358ddcdd4dd12edb37033ec1696130c4b0bcb3254c4c0b4386319"},
		{"random-1", "c2c61f7026c46141bafa62d2ca76dd6f9ed834f3b4623a7872982ae4c2de3341"},
		{"random-2", "2c522fba80ae683947a71a5b8d6958a0b3f00dc0e24572a5f7f509ed89bce8fa"},
		{"random-3", "f952e904d0d9ab4911c6f0e0554a88e81913073d58642f048a308c6bf3fd8fb7"},
	}
	got := map[string]string{}
	for _, p := range Profiles() {
		got[p.Name] = fmt.Sprintf("%x", Generate(p).Fingerprint())
	}
	for s := int64(1); s <= 3; s++ {
		got[fmt.Sprintf("random-%d", s)] = fmt.Sprintf("%x", Random(s, 6).Fingerprint())
	}
	if len(got) != len(want) {
		t.Errorf("%d programs, want %d", len(got), len(want))
	}
	for _, w := range want {
		if got[w.name] != w.fp {
			t.Errorf("%s: fingerprint %s, want %s", w.name, got[w.name], w.fp)
		}
	}
}
