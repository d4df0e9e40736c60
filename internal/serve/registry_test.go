package serve

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"cinnamon/internal/ckks"
)

func TestRegistryCompilesCatalog(t *testing.T) {
	reg := testEnv(t)
	names := reg.ProgramNames()
	if len(names) < 4 {
		t.Fatalf("expected >= 4 programs, got %v", names)
	}
	for _, name := range names {
		p, ok := reg.Program(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		// Emulator variants lower on demand, one per power of two up to
		// the registry's MaxBatch.
		for n, want := range map[int]int{0: 1, 1: 1, 3: 2, 4: 4, 9: 4} {
			if got := p.VariantFor(n).Batch; got != want {
				t.Fatalf("%s: VariantFor(%d).Batch = %d, want %d", name, n, got, want)
			}
		}
		if p.InLevel != reg.Params.MaxLevel() {
			t.Fatalf("%s: input level %d", name, p.InLevel)
		}
	}
}

func TestRegistryOutputMetadata(t *testing.T) {
	reg := testEnv(t)
	def := reg.Params.DefaultScale()
	top := reg.Params.MaxLevel()

	sq, _ := reg.Program("square")
	if sq.OutLevel != top-1 {
		t.Fatalf("square out level %d, want %d", sq.OutLevel, top-1)
	}
	wantScale := def * def / float64(reg.Params.QBasis.Moduli[top])
	if math.Abs(sq.OutScale-wantScale) > 1e-6*wantScale {
		t.Fatalf("square out scale %g, want %g", sq.OutScale, wantScale)
	}
	if !reflect.DeepEqual(sq.RequiredKeys, []string{"rlk"}) {
		t.Fatalf("square keys %v", sq.RequiredKeys)
	}

	rs, _ := reg.Program("rotsum")
	if rs.OutLevel != top || rs.OutScale != def {
		t.Fatalf("rotsum out (%d, %g), want (%d, %g)", rs.OutLevel, rs.OutScale, top, def)
	}
	if !reflect.DeepEqual(rs.RequiredKeys, []string{"rot:1", "rot:2", "rot:4"}) {
		t.Fatalf("rotsum keys %v", rs.RequiredKeys)
	}

	qu, _ := reg.Program("quartic")
	if qu.OutLevel != top-2 {
		t.Fatalf("quartic out level %d, want %d", qu.OutLevel, top-2)
	}

	wa, _ := reg.Program("wavg4")
	if !reflect.DeepEqual(wa.RequiredKeys, []string{"rot:1", "rot:2", "rot:3"}) {
		t.Fatalf("wavg4 keys %v", wa.RequiredKeys)
	}
	if len(wa.Plaintexts) != 4 {
		t.Fatalf("wavg4 has %d encoded plaintexts", len(wa.Plaintexts))
	}
}

func TestTenantKeyChecks(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 99)

	if _, err := core.Submit(context.Background(), "nope", testTenant, ct); err == nil || statusFor(err) != 404 {
		t.Fatalf("unknown program: %v", err)
	}
	if _, err := core.Submit(context.Background(), "square", "ghost", ct); err == nil || statusFor(err) != 403 {
		t.Fatalf("unknown tenant: %v", err)
	}
	// A tenant registered without the relinearization key cannot run
	// multiply programs.
	if err := reg.RegisterTenant("keyless", map[string]*ckks.EvalKey{}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Submit(context.Background(), "square", "keyless", ct); err == nil || statusFor(err) != 403 {
		t.Fatalf("missing keys: %v", err)
	}
}

func TestKeyBundleRoundTrip(t *testing.T) {
	reg := testEnv(t)
	var buf bytes.Buffer
	if err := WriteKeyBundle(&buf, env.keys); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKeyBundle(bytes.NewReader(buf.Bytes()), reg.Params)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(env.keys) {
		t.Fatalf("round trip lost keys: %d vs %d", len(got), len(env.keys))
	}
	// Corrupt the magic.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[0] ^= 0xff
	if _, err := ReadKeyBundle(bytes.NewReader(raw), reg.Params); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Truncate mid-key.
	if _, err := ReadKeyBundle(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), reg.Params); err == nil {
		t.Fatal("truncated bundle accepted")
	}
}

func TestSubmitRejectsBadCiphertext(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{BatchWait: time.Millisecond})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 7)
	bad := ct.Copy()
	bad.Scale = ct.Scale * 2
	if _, err := core.Submit(context.Background(), "square", testTenant, bad); err == nil || statusFor(err) != 400 {
		t.Fatalf("scale mismatch: %v", err)
	}
}
