package kernel

// IR (de)serialization. Kernels round-trip losslessly through JSON so the
// fuzzer's bug corpus (testdata/bugcorpus/) can persist minimized
// reproducers and replay them forever. Immediates are int64 bit patterns
// (float immediates go through F2B) written as exact decimal integers, so
// every immediate — including NaN payloads and -0.0 — survives
// encode/decode byte-identically.
//
// The codec is hand-written: an append-based encoder and a direct
// recursive-descent decoder, with no reflection. Its wire format and its
// acceptance rules are those of encoding/json over the IR's wire types,
// which json_test.go keeps as the single reference oracle
// (FuzzKernelCodecMatchesReference): the same bytes out, the same documents
// accepted, the same kernels decoded. That includes encoding/json's
// leniencies — keys match case-insensitively, unknown keys are skipped, a
// later duplicate key overrides an earlier one, and null leaves a scalar
// field as it was.
//
// Wire format: a Kernel is an object with its Go field names; an Instr is
// {"op":mnemonic, ...} carrying only the fields its opcode uses (absent
// dst/pred mean -1, trailing none operands are trimmed); an Operand is
// {"reg":n}, {"imm":n}, {"spec":"%tid.x"}, {"param":n}, or null for none;
// spaces and parameter kinds travel as their names.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// opByName inverts opNames for decoding.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// specialByName inverts specialNames for decoding.
var specialByName = func() map[string]Special {
	m := make(map[string]Special, len(specialNames))
	for s, name := range specialNames {
		m[name] = Special(s)
	}
	return m
}()

// EncodeJSON serializes the kernel: two-space indentation, fields in
// declaration order.
func (k *Kernel) EncodeJSON() ([]byte, error) {
	if k == nil {
		return []byte("null"), nil
	}
	e := encoder{b: make([]byte, 0, 512+160*len(k.Code))}
	if err := e.kernel(k); err != nil {
		return nil, err
	}
	return e.b, nil
}

// DecodeJSON parses a kernel serialized by EncodeJSON and validates it.
func DecodeJSON(data []byte) (*Kernel, error) {
	k, err := ParseJSON(data)
	if err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// ParseJSON is DecodeJSON without validation: it decodes any well-formed
// kernel document, including kernels Validate rejects (the corpus persists
// such kernels to pin Validate's sentinels).
func ParseJSON(data []byte) (*Kernel, error) {
	d := decoder{data: data}
	k := new(Kernel)
	d.ws()
	err := d.kernel(k)
	if err == nil {
		d.ws()
		if d.off < len(d.data) {
			err = d.syntax("after top-level value")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("kernel: decode: %w", err)
	}
	return k, nil
}

// encoder appends the indented document. depth is the current nesting
// level; first is true while the innermost open object or array has no
// member yet, so an empty one closes as {} or [].
type encoder struct {
	b     []byte
	depth int
	first bool
}

func (e *encoder) newline() {
	e.b = append(e.b, '\n')
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, ' ', ' ')
	}
}

func (e *encoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.first = true
}

func (e *encoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.first = false
	e.b = append(e.b, c)
}

// member starts the next array element.
func (e *encoder) member() {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.newline()
}

// field starts the next object member with its key.
func (e *encoder) field(name string) {
	e.member()
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':', ' ')
}

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *encoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// name writes a mnemonic that needs no escaping.
func (e *encoder) name(s string) {
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

const hexDigits = "0123456789abcdef"

// string writes s as a JSON string escaped as encoding/json escapes it:
// quote, backslash and control bytes, the HTML-sensitive <, > and &, and
// U+2028/U+2029 are escaped, and each invalid UTF-8 byte becomes U+FFFD.
func (e *encoder) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

func (e *encoder) kernel(k *Kernel) error {
	e.open('{')
	e.field("Name")
	e.string(k.Name)
	e.field("Params")
	if k.Params == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for _, p := range k.Params {
			e.member()
			e.open('{')
			e.field("Name")
			e.string(p.Name)
			e.field("Kind")
			switch p.Kind {
			case ParamScalar:
				e.name("scalar")
			case ParamBuffer:
				e.name("buffer")
			default:
				return fmt.Errorf("kernel: encode: param kind %d undefined", p.Kind)
			}
			e.field("ReadOnly")
			e.bool(p.ReadOnly)
			e.close('}')
		}
		e.close(']')
	}
	e.field("Locals")
	if k.Locals == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for _, lv := range k.Locals {
			e.member()
			e.open('{')
			e.field("Name")
			e.string(lv.Name)
			e.field("Bytes")
			e.int(int64(lv.Bytes))
			e.close('}')
		}
		e.close(']')
	}
	e.field("SharedBytes")
	e.int(int64(k.SharedBytes))
	e.field("NumRegs")
	e.int(int64(k.NumRegs))
	e.field("Code")
	if k.Code == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for i := range k.Code {
			e.member()
			if err := e.instr(&k.Code[i]); err != nil {
				return err
			}
		}
		e.close(']')
	}
	e.close('}')
	return nil
}

// instr writes one instruction with only the fields its opcode uses:
// memory ops always carry space (and bytes/f32 when set), branches always
// carry label (and reconv when non-zero), and trailing none operands are
// trimmed.
func (e *encoder) instr(in *Instr) error {
	if int(in.Op) >= len(opNames) || opNames[in.Op] == "" {
		return fmt.Errorf("kernel: encode: opcode %d undefined", in.Op)
	}
	e.open('{')
	e.field("op")
	e.name(opNames[in.Op])
	if in.Dst != -1 {
		e.field("dst")
		e.int(int64(in.Dst))
	}
	last := -1
	for i, src := range in.Src {
		if src.Kind != OperandNone {
			last = i
		}
	}
	if last >= 0 {
		e.field("src")
		e.open('[')
		for _, src := range in.Src[:last+1] {
			e.member()
			if err := e.operand(src); err != nil {
				return err
			}
		}
		e.close(']')
	}
	if in.Pred != -1 {
		e.field("pred")
		e.int(int64(in.Pred))
	}
	if in.PNeg {
		e.field("pneg")
		e.bool(true)
	}
	if in.Op.IsMemory() {
		if in.Space > SpaceShared {
			return fmt.Errorf("kernel: encode: space %d undefined", in.Space)
		}
		e.field("space")
		e.name(in.Space.String())
		if in.Bytes != 0 {
			e.field("bytes")
			e.int(int64(in.Bytes))
		}
		if in.F32 {
			e.field("f32")
			e.bool(true)
		}
	}
	if in.Op.IsBranch() {
		e.field("label")
		e.int(int64(in.Label))
		// The builder records a reconvergence point on every branch kind
		// (uniform branches carry it too, equal to their target); preserve
		// it for all of them so round-trips are lossless.
		if in.Reconv != 0 {
			e.field("reconv")
			e.int(int64(in.Reconv))
		}
	}
	e.close('}')
	return nil
}

func (e *encoder) operand(o Operand) error {
	if o.Kind == OperandNone {
		e.b = append(e.b, "null"...)
		return nil
	}
	e.open('{')
	switch o.Kind {
	case OperandReg:
		e.field("reg")
		e.int(int64(o.Reg))
	case OperandImm:
		e.field("imm")
		e.int(o.Imm)
	case OperandSpecial:
		if int(o.Special) >= NumSpecials {
			return fmt.Errorf("kernel: encode: special %d undefined", o.Special)
		}
		e.field("spec")
		e.name(o.Special.String())
	case OperandParam:
		e.field("param")
		e.int(int64(o.Param))
	default:
		return fmt.Errorf("kernel: encode: operand kind %d undefined", o.Kind)
	}
	e.close('}')
	return nil
}

// maxDepth is encoding/json's nesting limit: a document opening more
// objects and arrays at once is malformed.
const maxDepth = 10000

// decoder is a recursive-descent JSON parser that decodes straight into the
// IR. Every value it reads is fully checked against JSON's grammar, so it
// rejects any malformed document; value methods start at the value's first
// byte and stop just past its last. scratch holds unquoted strings that
// needed unescaping, valid until the next string is read.
type decoder struct {
	data    []byte
	off     int
	depth   int
	scratch []byte
}

func (d *decoder) syntax(what string) error {
	return fmt.Errorf("syntax error at offset %d: %s", d.off, what)
}

// mismatch reports a value of the wrong JSON type for its destination.
func (d *decoder) mismatch(into string) error {
	if d.off >= len(d.data) {
		return d.syntax("unexpected end of input")
	}
	return fmt.Errorf("offset %d: wrong JSON type for %s", d.off, into)
}

func (d *decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *decoder) literal(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return d.syntax("invalid literal")
	}
	d.off += len(word)
	return nil
}

// null consumes a null literal if one is at the cursor.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// container reads the object or array at the cursor, calling member with
// the cursor on each member's value (for an object, after reading its key
// into key).
func (d *decoder) container(open, close byte, member func(key []byte) error) error {
	if d.peek() != open {
		return d.mismatch(string(open))
	}
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	d.off++
	d.ws()
	if d.peek() == close {
		d.off++
		d.depth--
		return nil
	}
	for {
		var key []byte
		if open == '{' {
			if d.peek() != '"' {
				return d.syntax("expected object key")
			}
			var err error
			if key, err = d.str(); err != nil {
				return err
			}
			d.ws()
			if d.peek() != ':' {
				return d.syntax("expected ':' after object key")
			}
			d.off++
			d.ws()
		}
		if err := member(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case close:
			d.off++
			d.depth--
			return nil
		default:
			return d.syntax("expected ',' or closing bracket")
		}
	}
}

func (d *decoder) object(field func(key []byte) error) error { return d.container('{', '}', field) }

func (d *decoder) array(elem func() error) error {
	return d.container('[', ']', func([]byte) error { return elem() })
}

// is reports whether key selects the field name: encoding/json matches keys
// to field names case-insensitively, under Unicode simple folding.
func is(key []byte, name string) bool {
	return string(key) == name || strings.EqualFold(string(key), name)
}

// str reads a string token and returns its unquoted bytes, with invalid
// UTF-8 coerced to U+FFFD as encoding/json does. The result aliases the
// input or the scratch buffer.
func (d *decoder) str() ([]byte, error) {
	start := d.off + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			d.scratch = append(d.scratch[:0], d.data[start:i]...)
			d.off = i
			return d.strSlow()
		}
	}
	d.off = len(d.data)
	return nil, d.syntax("unterminated string")
}

func (d *decoder) strSlow() ([]byte, error) {
	b := d.scratch
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			d.scratch = b
			return b, nil
		case c < ' ':
			return nil, d.syntax("control character in string")
		case c == '\\':
			if d.off+1 >= len(d.data) {
				return nil, d.syntax("unterminated string")
			}
			switch esc := d.data[d.off+1]; esc {
			case '"', '\\', '/':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[d.off:])
				if r < 0 {
					return nil, d.syntax("invalid \\u escape")
				}
				d.off += 6
				if utf16.IsSurrogate(r) {
					// A valid pair decodes to one rune; anything else
					// yields U+FFFD and leaves the next escape unread.
					if dec := utf16.DecodeRune(r, hex4(d.data[d.off:])); dec != unicode.ReplacementChar {
						d.off += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, d.syntax("invalid escape")
			}
			d.off += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r)
			d.off += size
		}
	}
	return nil, d.syntax("unterminated string")
}

// hex4 decodes the \uXXXX escape at the head of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number reads a number token and returns its text.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	digits := func() bool {
		n := d.off
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
		}
		return d.off > n
	}
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case !digits():
		return nil, d.syntax("invalid number")
	}
	if d.peek() == '.' {
		d.off++
		if !digits() {
			return nil, d.syntax("invalid number")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !digits() {
			return nil, d.syntax("invalid number")
		}
	}
	return d.data[start:d.off], nil
}

// skip reads and discards one value of any type.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntax("invalid value")
}

// skipThen reads the value at the cursor and, if it is well formed,
// reports err: for a value the wire format cannot accept at all.
func (d *decoder) skipThen(err error) error {
	if serr := d.skip(); serr != nil {
		return serr
	}
	return err
}

// int64 reads an integer. A number with a fraction or exponent, or one
// out of range, is a type mismatch, as are non-numbers; null reports
// isNull and leaves the destination to the caller.
func (d *decoder) int64() (v int64, isNull bool, err error) {
	if isNull, err := d.null(); isNull || err != nil {
		return 0, isNull, err
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, false, d.mismatch("an integer")
	}
	tok, err := d.number()
	if err != nil {
		return 0, false, err
	}
	if v, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
		return 0, false, fmt.Errorf("offset %d: cannot decode number %s into an integer", d.off, tok)
	}
	return v, false, nil
}

// optInt reads an int field that null unsets: *set records presence.
func (d *decoder) optInt(p *int, set *bool) error {
	v, isNull, err := d.int64()
	switch {
	case err != nil:
		return err
	case int64(int(v)) != v:
		return fmt.Errorf("offset %d: %d overflows int", d.off, v)
	}
	*p, *set = int(v), !isNull
	return nil
}

// int reads an int field: null keeps *p.
func (d *decoder) int(p *int) error {
	var set bool
	v := *p
	if err := d.optInt(&v, &set); err != nil || !set {
		return err
	}
	*p = v
	return nil
}

// bool reads a bool field: null keeps *p.
func (d *decoder) bool(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.mismatch("a bool")
}

// name reads a string field into *p, or leaves *p for null; set, when
// non-nil, records whether the value was a string rather than null.
func (d *decoder) name(p *[]byte, set *bool) error {
	if isNull, err := d.null(); isNull || err != nil {
		if set != nil {
			*set = false
		}
		return err
	}
	if d.peek() != '"' {
		return d.mismatch("a string")
	}
	s, err := d.str()
	if err == nil {
		*p = s
		if set != nil {
			*set = true
		}
	}
	return err
}

// string reads a string field: null keeps *p.
func (d *decoder) string(p *string) error {
	var s []byte
	var set bool
	if err := d.name(&s, &set); err != nil || !set {
		return err
	}
	*p = string(s)
	return nil
}

// list decodes a JSON array into *s element by element with elem, with
// encoding/json's slice semantics: null sets nil, [] an empty non-nil
// slice, and each element decodes into the slot already there. Slots
// within capacity keep what an earlier decode of the same field (a
// duplicate key) left in them; slots beyond it start zero.
func list[T any](d *decoder, s *[]T, elem func(*T) error) error {
	if isNull, err := d.null(); isNull || err != nil {
		if isNull {
			*s = nil
		}
		return err
	}
	v, n := *s, 0
	err := d.array(func() error {
		switch {
		case n < len(v):
		case n < cap(v):
			v = v[:n+1]
		default:
			var zero T
			v = append(v, zero)
		}
		n++
		return elem(&v[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*s = []T{}
	} else {
		*s = v[:n]
	}
	return nil
}

func (d *decoder) kernel(k *Kernel) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	return d.object(func(key []byte) error {
		switch {
		case is(key, "Name"):
			return d.string(&k.Name)
		case is(key, "Params"):
			return list(d, &k.Params, d.param)
		case is(key, "Locals"):
			return list(d, &k.Locals, d.local)
		case is(key, "SharedBytes"):
			return d.int(&k.SharedBytes)
		case is(key, "NumRegs"):
			return d.int(&k.NumRegs)
		case is(key, "Code"):
			return list(d, &k.Code, d.instr)
		}
		return d.skip()
	})
}

// param decodes into p, merging into what it holds: null keeps it. The
// kind must be "scalar" or "buffer" wherever it appears, null included.
func (d *decoder) param(p *ParamSpec) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	return d.object(func(key []byte) error {
		switch {
		case is(key, "Name"):
			return d.string(&p.Name)
		case is(key, "ReadOnly"):
			return d.bool(&p.ReadOnly)
		case !is(key, "Kind"):
			return d.skip()
		case d.peek() != '"':
			return d.skipThen(errors.New("param kind must be a string"))
		}
		s, err := d.str()
		switch {
		case err != nil:
			return err
		case string(s) == "scalar":
			p.Kind = ParamScalar
		case string(s) == "buffer":
			p.Kind = ParamBuffer
		default:
			return fmt.Errorf("unknown param kind %q", s)
		}
		return nil
	})
}

// local decodes into lv, merging into what it holds: null keeps it.
func (d *decoder) local(lv *LocalVar) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	return d.object(func(key []byte) error {
		switch {
		case is(key, "Name"):
			return d.string(&lv.Name)
		case is(key, "Bytes"):
			return d.int(&lv.Bytes)
		}
		return d.skip()
	})
}

// instr decodes one instruction object, replacing *in entirely. The
// opcode (and each operand's special) is checked after the whole object,
// so only the value a duplicate key leaves last counts; a space is checked
// where it appears. Absent dst/pred decode to -1, absent label/reconv to 0,
// and fields the opcode does not use are zeroed, so decoding is idempotent.
func (d *decoder) instr(in *Instr) error {
	if d.peek() != '{' {
		return d.skipThen(errors.New("instruction must be an object"))
	}
	var (
		op                                   Op
		opKnown, pneg, f32                   bool
		dst, pred, label, reconv, bytes      int
		hasDst, hasPred, hasLabel, hasReconv bool
		space                                Space
		hasSpace                             bool
		src                                  [3]Operand
		nsrc                                 int
	)
	err := d.object(func(key []byte) error {
		switch {
		case is(key, "op"):
			var s []byte
			var set bool
			err := d.name(&s, &set)
			if set {
				op, opKnown = opByName[string(s)]
			}
			return err
		case is(key, "dst"):
			return d.optInt(&dst, &hasDst)
		case is(key, "src"):
			return d.operands(&src, &nsrc)
		case is(key, "pred"):
			return d.optInt(&pred, &hasPred)
		case is(key, "pneg"):
			return d.bool(&pneg)
		case is(key, "space"):
			return d.space(&space, &hasSpace)
		case is(key, "bytes"):
			return d.int(&bytes)
		case is(key, "f32"):
			return d.bool(&f32)
		case is(key, "label"):
			return d.optInt(&label, &hasLabel)
		case is(key, "reconv"):
			return d.optInt(&reconv, &hasReconv)
		}
		return d.skip()
	})
	switch {
	case err != nil:
		return err
	case !opKnown:
		return errors.New("unknown or missing opcode")
	case nsrc > len(src):
		return fmt.Errorf("%d source operands, max %d", nsrc, len(src))
	}
	*in = Instr{Op: op, Dst: -1, Src: src, Pred: -1, PNeg: pneg}
	if hasDst {
		in.Dst = dst
	}
	if hasPred {
		in.Pred = pred
	}
	if op.IsMemory() {
		in.Bytes, in.F32 = bytes, f32
		if hasSpace {
			in.Space = space
		}
	}
	if op.IsBranch() {
		if hasLabel {
			in.Label = label
		}
		if hasReconv {
			in.Reconv = reconv
		}
	}
	return nil
}

// operands decodes a "src" array. Each occurrence of the key starts over;
// *n counts the elements of the last one, and elements past len(src) are
// checked but dropped, leaving the caller to reject the count.
func (d *decoder) operands(src *[3]Operand, n *int) error {
	*src, *n = [3]Operand{}, 0
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	return d.array(func() error {
		var spill Operand
		o := &spill
		if *n < len(src) {
			o = &src[*n]
		}
		*n++
		return d.operand(o)
	})
}

// space decodes a memory space name, checked where it appears; null unsets
// it.
func (d *decoder) space(p *Space, set *bool) error {
	if isNull, err := d.null(); isNull || err != nil {
		*set = false
		return err
	}
	if d.peek() != '"' {
		return d.skipThen(errors.New("space must be a string"))
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	switch string(s) {
	case "global":
		*p = SpaceGlobal
	case "local":
		*p = SpaceLocal
	case "shared":
		*p = SpaceShared
	default:
		return fmt.Errorf("unknown space %q", s)
	}
	*set = true
	return nil
}

// operand decodes null (OperandNone) or an object setting exactly one of
// reg/imm/spec/param (null unsets a key).
func (d *decoder) operand(o *Operand) error {
	if isNull, err := d.null(); isNull || err != nil {
		*o = Operand{}
		return err
	}
	if d.peek() != '{' {
		return d.skipThen(errors.New("operand must be an object or null"))
	}
	var (
		reg, param                        int
		imm                               int64
		spec                              Special
		hasReg, hasImm, hasSpec, hasParam bool
		specKnown                         bool
	)
	err := d.object(func(key []byte) error {
		switch {
		case is(key, "reg"):
			return d.optInt(&reg, &hasReg)
		case is(key, "imm"):
			var isNull bool
			var err error
			imm, isNull, err = d.int64()
			hasImm = err == nil && !isNull
			return err
		case is(key, "spec"):
			var s []byte
			err := d.name(&s, &hasSpec)
			if hasSpec {
				spec, specKnown = specialByName[string(s)]
			}
			return err
		case is(key, "param"):
			return d.optInt(&param, &hasParam)
		}
		return d.skip()
	})
	if err != nil {
		return err
	}
	if hasSpec && !specKnown {
		return errors.New("unknown special register")
	}
	set := 0
	for _, has := range [...]bool{hasReg, hasImm, hasSpec, hasParam} {
		if has {
			set++
		}
	}
	switch {
	case set != 1:
		return errors.New("operand must set exactly one of reg/imm/spec/param")
	case hasReg:
		*o = Reg(reg)
	case hasImm:
		*o = Imm(imm)
	case hasSpec:
		*o = Spec(spec)
	default:
		*o = Param(param)
	}
	return nil
}
