package fleet

import (
	"strings"
	"testing"

	"repro/internal/cisco"
	"repro/internal/ir"
)

const hashBaseCfg = `hostname alpha
!
interface GigabitEthernet0/0
 ip address 10.0.1.1 255.255.255.0
 ip access-group EDGE in
!
ip prefix-list NETS permit 10.9.0.0/16 le 24
ip prefix-list NETS permit 10.10.0.0/16 le 24
!
ip community-list standard COMM permit 65000:100
!
route-map IMPORT deny 10
 match community COMM
route-map IMPORT permit 20
 match ip address NETS
 set local-preference 120
!
ip access-list extended EDGE
 10 deny ip 192.168.1.0 0.0.0.255 any
 20 permit ip any any
!
ip route 10.50.0.0 255.255.0.0 10.0.1.254
!
router bgp 65001
 bgp router-id 10.0.1.1
 neighbor 10.0.1.254 remote-as 64600
 neighbor 10.0.1.254 route-map IMPORT in
 neighbor 10.0.1.254 send-community
`

func parseCisco(t *testing.T, file, text string) *ir.Config {
	t.Helper()
	cfg, err := cisco.Parse(file, text)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	return cfg
}

// TestDeviceHashIdentity: hostname and file name are the only identity a
// device may differ in and still hash equal.
func TestDeviceHashIdentity(t *testing.T) {
	h := NewHasher()
	a := parseCisco(t, "alpha.cfg", hashBaseCfg)
	b := parseCisco(t, "beta.cfg", strings.Replace(hashBaseCfg, "hostname alpha", "hostname beta", 1))
	ha, fa := h.DeviceHash(a)
	hb, fb := h.DeviceHash(b)
	if fa || fb {
		t.Fatal("unexpected intensional fallback")
	}
	if ha != hb {
		t.Fatalf("hostname/file rename changed hash:\n%s\n%s", ha, hb)
	}
	// Stability across Hasher instances (fresh factories).
	hc, _ := NewHasher().DeviceHash(a)
	if hc != ha {
		t.Fatalf("hash not stable across hashers: %s vs %s", hc, ha)
	}
}

// TestDeviceHashSensitivity: every report-affecting edit must change the
// hash — semantic edits, pure text movement (line numbers and span text
// reach reports), and referenced-list edits invisible in the clause text.
func TestDeviceHashSensitivity(t *testing.T) {
	h := NewHasher()
	base, _ := h.DeviceHash(parseCisco(t, "a.cfg", hashBaseCfg))
	edits := map[string][2]string{
		"prefix-list semantics": {"10.9.0.0/16 le 24", "10.9.0.0/16 le 25"},
		"community list":        {"65000:100", "65000:101"},
		"local-pref":            {"local-preference 120", "local-preference 130"},
		"acl line":              {"192.168.1.0", "192.168.2.0"},
		"static route":          {"10.50.0.0", "10.51.0.0"},
		"bgp neighbor":          {"remote-as 64600", "remote-as 64601"},
		"line movement":         {"!\nip route", "!\n!\nip route"},
		"span text":             {" description", " Description"},
	}
	for name, ed := range edits {
		text := strings.Replace(hashBaseCfg, ed[0], ed[1], 1)
		if name == "span text" {
			text = strings.Replace(hashBaseCfg,
				"interface GigabitEthernet0/0", "interface  GigabitEthernet0/0", 1)
		}
		if text == hashBaseCfg {
			t.Fatalf("%s: edit did not apply", name)
		}
		got, _ := h.DeviceHash(parseCisco(t, "a.cfg", text))
		if got == base {
			t.Errorf("%s: edit did not change the hash", name)
		}
	}
}

// TestDeviceHashFallback: a node-budget abort mid-compile falls back to
// the fully intensional hash — deterministic, distinct from the semantic
// mode, and still hostname-independent.
func TestDeviceHashFallback(t *testing.T) {
	old := hashNodeBudget
	hashNodeBudget = 64
	defer func() { hashNodeBudget = old }()

	a := parseCisco(t, "a.cfg", hashBaseCfg)
	ha, fell := NewHasher().DeviceHash(a)
	if !fell {
		t.Skip("budget of 64 nodes did not trigger a fallback on this encoding")
	}
	hb, _ := NewHasher().DeviceHash(a)
	if ha != hb {
		t.Fatalf("fallback hash not deterministic: %s vs %s", ha, hb)
	}
	b := parseCisco(t, "b.cfg", strings.Replace(hashBaseCfg, "hostname alpha", "hostname beta", 1))
	hc, _ := NewHasher().DeviceHash(b)
	if hc != ha {
		t.Fatal("fallback hash depends on hostname")
	}

	hashNodeBudget = old
	semantic, fell2 := NewHasher().DeviceHash(a)
	if fell2 {
		t.Fatal("full budget still falls back")
	}
	if semantic == ha {
		t.Fatal("semantic and fallback hashes collide")
	}
}

// TestDeviceHashManyDevices: the shared-factory reset path (hashing far
// more devices than the arena threshold nominally allows) keeps hashes
// stable.
func TestDeviceHashManyDevices(t *testing.T) {
	h := NewHasher()
	want, _ := h.DeviceHash(parseCisco(t, "a.cfg", hashBaseCfg))
	for i := 0; i < 50; i++ {
		text := strings.Replace(hashBaseCfg, "65000:100", "65000:100\nip community-list standard COMM permit 65000:200", 1)
		h.DeviceHash(parseCisco(t, "x.cfg", text))
		got, _ := h.DeviceHash(parseCisco(t, "a.cfg", hashBaseCfg))
		if got != want {
			t.Fatalf("iteration %d: hash drifted under interleaved hashing", i)
		}
	}
}

// hashDstKeyedACL is an ACL whose rules each guard their own
// destination, the shape a pair-ordered packet encoding would branch on
// destination-first.
const hashDstKeyedACL = `ip access-list extended SERVICES
 10 permit tcp 10.1.0.0 0.0.255.255 10.200.1.0 0.0.0.255 eq 443
 20 deny udp 10.1.0.0 0.0.255.255 10.200.2.0 0.0.0.255 eq 53
 30 permit tcp 10.2.0.0 0.0.255.255 10.200.3.0 0.0.0.255 range 8000 8080
 40 permit ip any 10.200.4.0 0.0.0.255
 50 deny ip any any
!
`

// TestDeviceHashGolden pins the content address of ACL-bearing
// configurations to fixed digests. Device hashes serialize BDD
// structure, so the hasher must keep the identity packet order whatever
// order the diff engine picks per pair: a changed digest here would
// orphan every persisted -cache-dir entry without a hashVersion bump.
func TestDeviceHashGolden(t *testing.T) {
	for _, c := range []struct {
		name, text, want string
	}{
		{"base", hashBaseCfg, "92be202b181554de70c8c998152b14d73016a323005e4bbc723676d2240fc57c"},
		{"dst-keyed", hashBaseCfg + hashDstKeyedACL, "a14b83bfc80ee14da05cfaa87cb300e464e8ea9b73e24c6770324df4ed7857d6"},
	} {
		got, fell := NewHasher().DeviceHash(parseCisco(t, "a.cfg", c.text))
		if fell {
			t.Fatalf("%s: unexpected intensional fallback", c.name)
		}
		if got != c.want {
			t.Errorf("%s: DeviceHash = %s, want %s", c.name, got, c.want)
		}
	}
}
