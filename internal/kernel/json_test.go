package kernel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The reference codec. Until the IR got its hand-written codec (json.go),
// kernels were serialized by encoding/json through the json.Marshaler and
// json.Unmarshaler methods below. They live on here, in the test build
// only, as the single oracle the hand-written codec must match: the same
// encoded bytes, the same documents accepted, the same kernels decoded
// (FuzzKernelCodecMatchesReference).

// referenceEncode is the reflective encoder.
func referenceEncode(k *Kernel) ([]byte, error) { return json.MarshalIndent(k, "", "  ") }

// referenceParse is the reflective decoder, without validation.
func referenceParse(data []byte) (*Kernel, error) {
	var k Kernel
	if err := json.Unmarshal(data, &k); err != nil {
		return nil, err
	}
	return &k, nil
}

// operandJSON is the wire form of an Operand: exactly one field set.
// OperandNone encodes as JSON null.
type operandJSON struct {
	Reg   *int    `json:"reg,omitempty"`
	Imm   *int64  `json:"imm,omitempty"`
	Spec  *string `json:"spec,omitempty"`
	Param *int    `json:"param,omitempty"`
}

// MarshalJSON encodes the operand as {"reg":n}, {"imm":n}, {"spec":"%tid.x"},
// {"param":n}, or null for OperandNone.
func (o Operand) MarshalJSON() ([]byte, error) {
	switch o.Kind {
	case OperandNone:
		return []byte("null"), nil
	case OperandReg:
		return json.Marshal(operandJSON{Reg: &o.Reg})
	case OperandImm:
		return json.Marshal(operandJSON{Imm: &o.Imm})
	case OperandSpecial:
		if int(o.Special) >= NumSpecials {
			return nil, fmt.Errorf("kernel: marshal: special %d undefined", o.Special)
		}
		s := o.Special.String()
		return json.Marshal(operandJSON{Spec: &s})
	case OperandParam:
		return json.Marshal(operandJSON{Param: &o.Param})
	}
	return nil, fmt.Errorf("kernel: marshal: operand kind %d undefined", o.Kind)
}

// UnmarshalJSON decodes the forms produced by MarshalJSON.
func (o *Operand) UnmarshalJSON(data []byte) error {
	*o = Operand{}
	if string(data) == "null" {
		return nil
	}
	var w operandJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	set := 0
	if w.Reg != nil {
		set++
		*o = Reg(*w.Reg)
	}
	if w.Imm != nil {
		set++
		*o = Imm(*w.Imm)
	}
	if w.Spec != nil {
		set++
		s, ok := specialByName[*w.Spec]
		if !ok {
			return fmt.Errorf("kernel: unmarshal: unknown special %q", *w.Spec)
		}
		*o = Spec(s)
	}
	if w.Param != nil {
		set++
		*o = Param(*w.Param)
	}
	if set != 1 {
		return fmt.Errorf("kernel: unmarshal: operand %s must set exactly one of reg/imm/spec/param", data)
	}
	return nil
}

// instrJSON is the wire form of an Instr. Dst/Pred use pointers so the -1
// "none" sentinel can be omitted while target index 0 stays representable.
type instrJSON struct {
	Op     string    `json:"op"`
	Dst    *int      `json:"dst,omitempty"`
	Src    []Operand `json:"src,omitempty"`
	Pred   *int      `json:"pred,omitempty"`
	PNeg   bool      `json:"pneg,omitempty"`
	Space  *Space    `json:"space,omitempty"`
	Bytes  int       `json:"bytes,omitempty"`
	F32    bool      `json:"f32,omitempty"`
	Label  *int      `json:"label,omitempty"`
	Reconv *int      `json:"reconv,omitempty"`
}

// MarshalJSON encodes the instruction with its opcode mnemonic and only the
// fields its opcode uses; trailing None source operands are trimmed.
func (in Instr) MarshalJSON() ([]byte, error) {
	name := opNames[in.Op]
	if int(in.Op) >= len(opNames) || name == "" {
		return nil, fmt.Errorf("kernel: marshal: opcode %d undefined", in.Op)
	}
	w := instrJSON{Op: name, PNeg: in.PNeg}
	if in.Dst != -1 {
		w.Dst = &in.Dst
	}
	if in.Pred != -1 {
		w.Pred = &in.Pred
	}
	last := -1
	for i, src := range in.Src {
		if src.Kind != OperandNone {
			last = i
		}
	}
	if last >= 0 {
		w.Src = append([]Operand(nil), in.Src[:last+1]...)
	}
	if in.Op.IsMemory() {
		sp := in.Space
		w.Space = &sp
		w.Bytes = in.Bytes
		w.F32 = in.F32
	}
	if in.Op.IsBranch() {
		l := in.Label
		w.Label = &l
		// The builder records a reconvergence point on every branch kind
		// (uniform branches carry it too, equal to their target); preserve
		// it for all of them so round-trips are lossless.
		if in.Reconv != 0 {
			r := in.Reconv
			w.Reconv = &r
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the form produced by MarshalJSON. Absent dst/pred
// decode to -1; absent label/reconv decode to 0.
func (in *Instr) UnmarshalJSON(data []byte) error {
	var w instrJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	op, ok := opByName[w.Op]
	if !ok {
		return fmt.Errorf("kernel: unmarshal: unknown opcode %q", w.Op)
	}
	if len(w.Src) > len(in.Src) {
		return fmt.Errorf("kernel: unmarshal: %d source operands, max %d", len(w.Src), len(in.Src))
	}
	*in = Instr{Op: op, Dst: -1, Pred: -1, PNeg: w.PNeg, Bytes: w.Bytes, F32: w.F32}
	if w.Dst != nil {
		in.Dst = *w.Dst
	}
	if w.Pred != nil {
		in.Pred = *w.Pred
	}
	copy(in.Src[:], w.Src)
	if w.Space != nil {
		in.Space = *w.Space
	}
	if w.Label != nil {
		in.Label = *w.Label
	}
	if w.Reconv != nil {
		in.Reconv = *w.Reconv
	}
	// Canonicalize: zero the fields this opcode does not use, so decoding
	// is idempotent (Marshal omits them; stray values — e.g. from JSON's
	// case-insensitive field matching — must not survive a round trip).
	if !in.Op.IsMemory() {
		in.Space, in.Bytes, in.F32 = 0, 0, false
	}
	if !in.Op.IsBranch() {
		in.Label, in.Reconv = 0, 0
	}
	return nil
}

// Spaces travel as their mnemonic strings.
func (s Space) MarshalJSON() ([]byte, error) {
	if s > SpaceShared {
		return nil, fmt.Errorf("kernel: marshal: space %d undefined", s)
	}
	return json.Marshal(s.String())
}

func (s *Space) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "global":
		*s = SpaceGlobal
	case "local":
		*s = SpaceLocal
	case "shared":
		*s = SpaceShared
	default:
		return fmt.Errorf("kernel: unmarshal: unknown space %q", name)
	}
	return nil
}

// Parameter kinds travel as "scalar" or "buffer".
func (p ParamKind) MarshalJSON() ([]byte, error) {
	switch p {
	case ParamScalar:
		return json.Marshal("scalar")
	case ParamBuffer:
		return json.Marshal("buffer")
	}
	return nil, fmt.Errorf("kernel: marshal: param kind %d undefined", p)
}

func (p *ParamKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "scalar":
		*p = ParamScalar
	case "buffer":
		*p = ParamBuffer
	default:
		return fmt.Errorf("kernel: unmarshal: unknown param kind %q", name)
	}
	return nil
}

// sampleKernel exercises every operand kind, both addressing methods, all
// three spaces, divergent + uniform control flow, predication, and float
// immediates with awkward bit patterns.
func sampleKernel() *Kernel {
	b := NewBuilder("json_sample")
	d := b.BufferParam("d", false)
	idx := b.BufferParam("idx", true)
	s := b.ScalarParam("n")
	tmp := b.Local("tmp", 32)
	b.Shared(64)

	i := b.Add(b.GlobalTID(), Imm(0))
	guard := b.SetLT(i, s)
	b.If(guard, func() {
		v := b.LoadGlobalOfs(idx, b.Mul(i, Imm(8)), 8)
		f := b.FMul(FImm(math.Copysign(0, -1)), FImm(1.5))
		nan := b.FAdd(FImm(math.Float64frombits(0x7ff8_dead_beef_0001)), f)
		b.StoreLocal(tmp, Imm(8), nan, 8)
		addr := b.AddScaled(d, v, 4)
		b.StoreGlobal(addr, b.CvtFI(nan), 4)
	})
	b.ForRange(Imm(0), Imm(3), Imm(1), func(it Operand) {
		b.StoreShared(b.Mul(it, Imm(8)), it, 8)
	})
	b.Exit()
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}

// TestKernelJSONRoundTrip: encode → decode → re-encode must reproduce both
// the in-memory Kernel (deep-equal) and the exact bytes, and the bytes must
// be the reference encoder's.
func TestKernelJSONRoundTrip(t *testing.T) {
	k := sampleKernel()
	enc, err := k.EncodeJSON()
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	ref, err := referenceEncode(k)
	if err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	if !bytes.Equal(enc, ref) {
		t.Fatalf("EncodeJSON differs from the reference encoder:\n%s\n---\n%s", enc, ref)
	}
	back, err := DecodeJSON(enc)
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	if !reflect.DeepEqual(k, back) {
		t.Fatalf("round-trip mismatch:\nin:  %+v\nout: %+v", k, back)
	}
	enc2, err := back.EncodeJSON()
	if err != nil {
		t.Fatalf("re-EncodeJSON: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoding not byte-identical:\n%s\n---\n%s", enc, enc2)
	}
}

// oneInstr wraps in as the sole instruction of a kernel, the smallest
// document the codec reads.
func oneInstr(in Instr) *Kernel {
	return &Kernel{Name: "one", NumRegs: 1, Code: []Instr{in}}
}

// TestFloatImmediateBitsSurvive pins the satellite requirement directly:
// F2B immediates must survive encode/decode byte-identically, including
// NaN payloads, negative zero, and the extreme finite values.
func TestFloatImmediateBitsSurvive(t *testing.T) {
	floats := []uint64{
		math.Float64bits(0),
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(1.5),
		math.Float64bits(math.MaxFloat64),
		math.Float64bits(math.SmallestNonzeroFloat64),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		0x7ff8_0000_0000_0001, // quiet NaN with payload
		0xfff8_dead_beef_cafe, // negative NaN with payload
	}
	for _, bits := range floats {
		in := Instr{Op: OpMov, Dst: 0, Src: [3]Operand{FImm(math.Float64frombits(bits))}, Pred: -1}
		enc, err := oneInstr(in).EncodeJSON()
		if err != nil {
			t.Fatalf("encode imm %#x: %v", bits, err)
		}
		back, err := ParseJSON(enc)
		if err != nil {
			t.Fatalf("decode imm %#x: %v", bits, err)
		}
		if got := uint64(back.Code[0].Src[0].Imm); got != bits {
			t.Errorf("imm bits %#x came back as %#x", bits, got)
		}
	}
}

// TestOperandJSONForms pins the wire format of each operand kind.
func TestOperandJSONForms(t *testing.T) {
	cases := []struct {
		op   Operand
		want string
	}{
		{Operand{}, `null`},
		{Reg(3), `{"reg":3}`},
		{Imm(-9), `{"imm":-9}`},
		{Spec(SpecGlobalTID), `{"spec":"%gtid"}`},
		{Param(1), `{"param":1}`},
	}
	for _, tc := range cases {
		// A trailing operand keeps a none operand from being trimmed.
		in := Instr{Op: OpMov, Dst: 0, Src: [3]Operand{tc.op, Imm(0)}, Pred: -1}
		enc, err := oneInstr(in).EncodeJSON()
		if err != nil {
			t.Fatalf("encode %v: %v", tc.op, err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, enc); err != nil {
			t.Fatalf("encoding of %v is not JSON: %v", tc.op, err)
		}
		if want := `"src":[` + tc.want + `,{"imm":0}]`; !bytes.Contains(compact.Bytes(), []byte(want)) {
			t.Errorf("encoding of %v = %s, want it to contain %s", tc.op, compact.Bytes(), want)
		}
		back, err := ParseJSON(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", enc, err)
		}
		if back.Code[0].Src[0] != tc.op {
			t.Errorf("round-trip %v came back %v", tc.op, back.Code[0].Src[0])
		}
	}
}

// TestInstrJSONRejectsMalformed: decoding garbage must error, not panic or
// silently mis-decode, in the reference and the hand-written decoder alike.
func TestInstrJSONRejectsMalformed(t *testing.T) {
	bad := []string{
		`{"op":"frobnicate"}`,
		`{"op":"mov","src":[{"reg":1,"imm":2}]}`,
		`{"op":"mov","src":[{}]}`,
		`{"op":"ld","space":"astral","bytes":4}`,
		`{"op":"mov","src":[{"spec":"%nope"}]}`,
		`{"op":"mov","src":[null,null,null,null]}`,
		`null`,
		`{"op":"mov","dst":1.0}`,
		`{"op":"mov","pneg":1}`,
	}
	for _, s := range bad {
		doc := []byte(`{"Code":[` + s + `]}`)
		if k, err := ParseJSON(doc); err == nil {
			t.Errorf("malformed instr %s decoded without error (got %+v)", s, k.Code)
		}
		if _, err := referenceParse(doc); err == nil {
			t.Errorf("reference decoded malformed instr %s", s)
		}
	}
}

// instrSeeds are the single-instruction fuzz seeds: every instruction of
// sampleKernel in the reference's compact form plus hand-picked edge forms.
func instrSeeds(tb testing.TB) []string {
	var seeds []string
	for _, in := range sampleKernel().Code {
		enc, err := json.Marshal(in)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, string(enc))
	}
	return append(seeds,
		`{"op":"bra.div","pred":1,"pneg":true,"label":0,"reconv":4}`,
		`{"op":"atom.add","dst":2,"src":[{"reg":0},null,{"imm":1}],"space":"global","bytes":8}`,
		`{"op":"st","src":[{"imm":0},{"imm":0},{"spec":"%laneid"}],"space":"local","bytes":2}`)
}

// FuzzInstrJSONRoundTrip is the go-fuzz-style round-trip property: any JSON
// that decodes as an instruction (in a one-instruction kernel) must
// re-encode and decode to the same kernel, with byte-identical
// re-encodings, and the reference must agree on whether it decodes.
func FuzzInstrJSONRoundTrip(f *testing.F) {
	for _, s := range instrSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		doc := []byte(`{"Code":[` + data + `]}`)
		k, err := ParseJSON(doc)
		if _, refErr := referenceParse(doc); (err == nil) != (refErr == nil) {
			t.Fatalf("%s: decoder error %v, reference error %v", doc, err, refErr)
		}
		if err != nil {
			t.Skip()
		}
		enc, err := k.EncodeJSON()
		if err != nil {
			// Decoded instructions can hold encodings the encoder refuses
			// only if the decoder accepted something invalid; flag it.
			t.Fatalf("decoded %q but re-encode failed: %v", data, err)
		}
		back, err := ParseJSON(enc)
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", enc, err)
		}
		if !reflect.DeepEqual(back, k) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", k.Code, back.Code)
		}
		enc2, err := back.EncodeJSON()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encodings differ: %s vs %s", enc, enc2)
		}
	})
}

// bugCorpusKernels returns every kernel stored in the repository's bug
// corpus, as stored (each launch's "kernel" value).
func bugCorpusKernels(tb testing.TB) map[string][]byte {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "bugcorpus", "*.json"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) == 0 {
		tb.Fatal("no bug corpus entries found")
	}
	out := make(map[string][]byte)
	for _, fn := range files {
		data, err := os.ReadFile(fn)
		if err != nil {
			tb.Fatal(err)
		}
		var entry struct {
			Launches []struct {
				Kernel json.RawMessage `json:"kernel"`
			} `json:"launches"`
		}
		if err := json.Unmarshal(data, &entry); err != nil {
			tb.Fatalf("%s: %v", fn, err)
		}
		for li, l := range entry.Launches {
			out[fmt.Sprintf("%s#%d", filepath.Base(fn), li)] = l.Kernel
		}
	}
	return out
}

// TestBugCorpusKernelsReencode: every stored corpus kernel decodes to the
// reference's kernel and re-encodes to exactly its stored form (the corpus
// indents it one level deeper inside the entry, so the forms are compared
// compacted) and to exactly the reference encoder's bytes.
func TestBugCorpusKernelsReencode(t *testing.T) {
	for name, raw := range bugCorpusKernels(t) {
		k, err := ParseJSON(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceParse(raw)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(k, want) {
			t.Fatalf("%s: decoded kernel differs from the reference's", name)
		}
		enc, err := k.EncodeJSON()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		ref, err := referenceEncode(want)
		if err != nil {
			t.Fatalf("%s: reference encode: %v", name, err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("%s: encoding differs from the reference's:\n%s\n---\n%s", name, enc, ref)
		}
		var stored, got bytes.Buffer
		if err := json.Compact(&stored, raw); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&got, enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored.Bytes(), got.Bytes()) {
			t.Errorf("%s: re-encoding differs from the stored kernel:\n%s\n---\n%s", name, got.Bytes(), stored.Bytes())
		}
	}
}

// FuzzKernelCodecMatchesReference is the differential property tying the
// hand-written codec to the reference: on arbitrary bytes both decoders
// accept or both reject; accepted kernels are deep-equal; the hand-written
// encoder's bytes equal the reference encoder's; and DecodeJSON accepts
// exactly when the reference kernel also validates.
func FuzzKernelCodecMatchesReference(f *testing.F) {
	for _, raw := range bugCorpusKernels(f) {
		f.Add(raw)
	}
	for _, s := range instrSeeds(f) {
		f.Add([]byte(s))
		f.Add([]byte(`{"Name":"seed","NumRegs":4,"Code":[` + s + `]}`))
	}
	sample, err := sampleKernel().EncodeJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add([]byte(`{"params":[{"name":"a","kind":"buffer"}],"Params":[null,{"Kind":"scalar"}],"PARAMS":[{"ReadOnly":true}],"Locals":[]}`))
	f.Add([]byte(`{"ſharedBytes":3,"nUmReGs":1,"code":[{"op":"exit","OP":"bar","dst":null,"src":[1,2],"src":null}]}`))
	f.Add([]byte(`{"Name":"\ud800\u0041\"<&>\u2028\t","Code":[{"op":"mov","dst":0,"src":[{"imm":-0},{"spec":"%nope","spec":null,"reg":0}]}]}`))
	f.Add([]byte("{\"Name\":\"a\xffb\xe2\x80\xa8c\xed\xa0\x80\",\"Params\":[{\"\u212aind\":\"buffer\"}],\"\u017fharedBytes\":2}"))
	f.Add([]byte(`{"Locals":[{"Name":"a","Bytes":4},{"Name":"b","Bytes":8}],"Locals":[{"Bytes":1}],"Locals":[null,{}]}`))
	f.Add([]byte(`{"Code":[{"op":"mov","src":[{"imm":1},{"imm":2},{"imm":3},{"imm":4}],"src":[{"imm":5}]}]}`))
	f.Add([]byte(`{"Code":[{"op":"ld","space":null,"bytes":4},{"op":"bra","label":null,"reconv":3},{"op":"add","space":"global","label":4}]}`))
	f.Add([]byte(strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth)))
	f.Add([]byte(`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseJSON(data)
		want, refErr := referenceParse(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("accept/reject disagree on %q: decoder error %v, reference error %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded kernels differ on %q:\ngot  %#v\nwant %#v", data, got, want)
		}
		enc, err := got.EncodeJSON()
		ref, refErr := referenceEncode(want)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("encoders disagree on success for %q: %v vs %v", data, err, refErr)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("encodings differ for %q:\n%s\n---\n%s", data, enc, ref)
		}
		_, err = DecodeJSON(data)
		if vErr := want.Validate(); (err == nil) != (vErr == nil) {
			t.Fatalf("DecodeJSON error %v, but reference kernel validates with %v", err, vErr)
		}
	})
}
