package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// This file is the v1 request decoder: one pass over a POST /v1/decide body
// that accepts and refuses exactly the bodies json.Unmarshal into
// DecideRequest accepts and refuses (schema.go states the grammar), without
// reflection and without allocating per query. server_test.go keeps that
// json.Unmarshal decode as the oracle FuzzDecodeRequest holds this one to.

// maxDepth is encoding/json's nesting limit: a body with more arrays and
// objects open at once is a syntax error there, so it is one here.
const maxDepth = 10000

// wireRequest is a decide body as decoded, before validation.
type wireRequest struct {
	v int
	// n is the length of the requests array decoded last.
	n int
	// slots holds requests elements 0..MaxBatch-1 as last decoded since the
	// last empty or null requests value; see requests.
	slots []querySlot
}

// querySlot is one requests element as decoded so far. dataset and rule
// are the raw string tokens, quotes included, sliced from the body; nil
// means never set.
type querySlot struct {
	dataset, rule []byte
	scale         float64
	seed          uint64
}

// decodeError is a body the decoder refuses: the problem and the byte
// offset where it was found.
type decodeError struct {
	msg string
	off int
}

func (e *decodeError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

// decoder walks one body. Every method leaves pos past the whitespace after
// what it consumed, so the next method starts at a token or the end.
type decoder struct {
	body  []byte
	pos   int
	depth int
}

// request decodes the whole body into r, keeping at most maxBatch slots: a
// JSON object (or null) with nothing but whitespace after it.
func (d *decoder) request(r *wireRequest, maxBatch int) error {
	d.ws()
	switch d.peek() {
	case 'n':
		if err := d.word("null"); err != nil {
			return err
		}
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			name, ok, err := d.member(first)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			switch {
			case keyIs(name, "v"):
				err = d.intField(&r.v, "v")
			case keyIs(name, "requests"):
				err = d.requests(r, maxBatch)
			default:
				err = d.skip()
			}
			if err != nil {
				return err
			}
		}
	default:
		return d.mismatch("the request", "an object")
	}
	if d.pos < len(d.body) {
		return d.unexpected("after the request object")
	}
	return nil
}

// requests decodes the requests value into r the way json.Unmarshal decodes
// into the slice it already holds: element i over slot i, fields the
// element does not name left as they were, and an empty array or null
// starting afresh. Elements from maxBatch on are checked and counted, not
// kept, so an oversized batch costs no more memory than a full one.
func (d *decoder) requests(r *wireRequest, maxBatch int) error {
	switch d.peek() {
	case 'n':
		r.n, r.slots = 0, r.slots[:0]
		return d.word("null")
	case '[':
	default:
		return d.mismatch("requests", "an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	n := 0
	for first := true; ; first = false {
		more, err := d.more(']', first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		var spare querySlot
		q := &spare
		if n < maxBatch {
			if n == len(r.slots) {
				r.slots = append(r.slots, querySlot{})
			}
			q = &r.slots[n]
		}
		if err := d.query(q); err != nil {
			return err
		}
		n++
	}
	r.n = n
	if n == 0 {
		r.slots = r.slots[:0]
	}
	return nil
}

// query decodes one requests element over q: an object sets the fields it
// names, null leaves q as it was.
func (d *decoder) query(q *querySlot) error {
	switch d.peek() {
	case 'n':
		return d.word("null")
	case '{':
	default:
		return d.mismatch("each query", "an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, ok, err := d.member(first)
		if !ok || err != nil {
			return err
		}
		switch {
		case keyIs(name, "dataset"):
			err = d.stringField(&q.dataset, "dataset")
		case keyIs(name, "scale"):
			err = d.floatField(&q.scale, "scale")
		case keyIs(name, "seed"):
			err = d.uintField(&q.seed, "seed")
		case keyIs(name, "rule"):
			err = d.stringField(&q.rule, "rule")
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// keyIs reports whether an unquoted object key selects the field named
// key, a lowercase ASCII word. encoding/json matches keys by its own case
// folding, which agrees with bytes.EqualFold except on 'i' (U+0130 and
// U+0131 fold to it there), and no v1 key has an 'i'. The runes outside
// ASCII that fold to a letter take two or more bytes, so a name of key's
// length matches only in ASCII and a shorter one never does.
func keyIs(name []byte, key string) bool {
	if len(name) != len(key) {
		return len(name) > len(key) && bytes.EqualFold(name, []byte(key))
	}
	for i := 0; i < len(key); i++ {
		if name[i]|0x20 != key[i] {
			return false
		}
	}
	return true
}

// stringField decodes a string value for field into *dst as its token;
// null leaves *dst unchanged.
func (d *decoder) stringField(dst *[]byte, field string) error {
	switch d.peek() {
	case '"':
		tok, err := d.str()
		if err == nil {
			*dst = tok
		}
		return err
	case 'n':
		return d.word("null")
	}
	return d.mismatch(field, "a string")
}

// floatField decodes a number for field into *dst with strconv.ParseFloat,
// as json.Unmarshal does into a float64; null leaves *dst unchanged.
func (d *decoder) floatField(dst *float64, field string) error {
	at := d.pos
	lit, err := d.number(field, "a number")
	if lit == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return &decodeError{msg: field + " is out of float64 range", off: at}
	}
	*dst = f
	return nil
}

// uintField decodes a number for field into *dst with strconv.ParseUint,
// as json.Unmarshal does into a uint64; null leaves *dst unchanged.
func (d *decoder) uintField(dst *uint64, field string) error {
	at := d.pos
	lit, err := d.number(field, "an unsigned integer")
	if lit == nil || err != nil {
		return err
	}
	u, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return &decodeError{msg: field + " must be an unsigned 64-bit integer", off: at}
	}
	*dst = u
	return nil
}

// intField decodes a number for field into *dst with strconv.ParseInt, as
// json.Unmarshal does into an int; null leaves *dst unchanged.
func (d *decoder) intField(dst *int, field string) error {
	at := d.pos
	lit, err := d.number(field, "an integer")
	if lit == nil || err != nil {
		return err
	}
	i, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return &decodeError{msg: fmt.Sprintf("%s must be an integer that fits %d bits", field, strconv.IntSize), off: at}
	}
	*dst = int(i)
	return nil
}

// number returns the number literal for field, or nil for null.
func (d *decoder) number(field, want string) ([]byte, error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.word("null")
	case c == '-' || isDigit(c):
		return d.num()
	}
	return nil, d.mismatch(field, want)
}

// member advances to the next member of the object open consumed, past its
// key and colon, and returns the key unquoted; ok is false once the object
// closes. first is true before the first member.
func (d *decoder) member(first bool) (name []byte, ok bool, err error) {
	more, err := d.more('}', first)
	if !more || err != nil {
		return nil, false, err
	}
	tok, err := d.key()
	if err != nil {
		return nil, false, err
	}
	return text(tok), true, nil
}

// skip consumes one value of any type and checks its syntax. It keeps the
// closers of the containers it is inside on its own stack, so a deeply
// nested value costs no recursion.
func (d *decoder) skip() error {
	var buf [64]byte
	closers := buf[:0]
	for {
		first := false
		if c := d.peek(); c == '{' || c == '[' {
			if err := d.open(); err != nil {
				return err
			}
			closers = append(closers, c+2) // '}' and ']' are two past '{' and '['
			first = true
		} else if err := d.scalar(); err != nil {
			return err
		}
		for {
			if len(closers) == 0 {
				return nil
			}
			more, err := d.more(closers[len(closers)-1], first)
			if err != nil {
				return err
			}
			if more {
				break
			}
			closers = closers[:len(closers)-1]
			first = false
		}
		if closers[len(closers)-1] == '}' {
			if _, err := d.key(); err != nil {
				return err
			}
		}
	}
}

// scalar consumes a string, number, true, false or null.
func (d *decoder) scalar() error {
	var err error
	switch c := d.peek(); {
	case c == '"':
		_, err = d.str()
	case c == '-' || isDigit(c):
		_, err = d.num()
	case c == 't':
		err = d.word("true")
	case c == 'f':
		err = d.word("false")
	case c == 'n':
		err = d.word("null")
	default:
		err = d.unexpected("looking for a value")
	}
	return err
}

// open consumes the '{' or '[' at pos.
func (d *decoder) open() error {
	d.depth++
	if d.depth > maxDepth {
		return d.fail("nesting deeper than %d", maxDepth)
	}
	d.pos++
	d.ws()
	return nil
}

// more reports whether the container that closer ('}' or ']') ends has
// another member or element, consuming the comma before it; after the last
// it consumes closer and reports false. first is true before the first.
func (d *decoder) more(closer byte, first bool) (bool, error) {
	c := d.peek()
	if c == closer {
		d.pos++
		d.depth--
		d.ws()
		return false, nil
	}
	if !first {
		if c != ',' {
			if closer == '}' {
				return false, d.unexpected("after object key:value pair")
			}
			return false, d.unexpected("after array element")
		}
		d.pos++
		d.ws()
	}
	return true, nil
}

// key consumes an object key and the colon after it and returns the key's
// token.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.unexpected("looking for beginning of object key string")
	}
	tok, err := d.str()
	if err != nil {
		return nil, err
	}
	if d.peek() != ':' {
		return nil, d.unexpected("after object key")
	}
	d.pos++
	d.ws()
	return tok, nil
}

// str consumes the string token at pos and returns it, quotes included. As
// in encoding/json, control characters and bad escapes are syntax errors
// and invalid UTF-8 is not.
func (d *decoder) str() ([]byte, error) {
	start := d.pos
	d.pos++
	for {
		body, i := d.body, d.pos
		for i < len(body) && body[i] >= 0x20 && body[i] != '"' && body[i] != '\\' {
			i++
		}
		d.pos = i
		switch d.peek() {
		case '"':
			d.pos++
			tok := d.body[start:d.pos]
			d.ws()
			return tok, nil
		case '\\':
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if !isHex(d.peek()) {
						return nil, d.unexpected("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return nil, d.unexpected("in string escape code")
			}
		default:
			return nil, d.unexpected("in string literal")
		}
	}
}

// num consumes the number token at pos and returns it.
func (d *decoder) num() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.unexpected("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if !isDigit(d.peek()) {
			return nil, d.unexpected("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !isDigit(d.peek()) {
			return nil, d.unexpected("in exponent of numeric literal")
		}
		d.digits()
	}
	tok := d.body[start:d.pos]
	d.ws()
	return tok, nil
}

// digits consumes a run of decimal digits.
func (d *decoder) digits() {
	for isDigit(d.peek()) {
		d.pos++
	}
}

// word consumes the literal w (true, false or null).
func (d *decoder) word(w string) error {
	for i := 0; i < len(w); i++ {
		if d.peek() != w[i] {
			return d.unexpected("in literal " + w)
		}
		d.pos++
	}
	d.ws()
	return nil
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.body) {
		switch d.body[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at pos, or 0 at the end of the body (a byte no
// token starts with).
func (d *decoder) peek() byte {
	if d.pos < len(d.body) {
		return d.body[d.pos]
	}
	return 0
}

// mismatch refuses the value at pos, which json.Unmarshal cannot store in
// field: a type error, or a syntax error if no value starts there.
func (d *decoder) mismatch(field, want string) error {
	switch c := d.peek(); {
	case c == '"' || c == '{' || c == '[' || c == 't' || c == 'f' || c == 'n' || c == '-' || isDigit(c):
		return d.fail("%s must be %s", field, want)
	}
	return d.unexpected("looking for a value")
}

// unexpected refuses the byte at pos, or the end of the body, in context.
func (d *decoder) unexpected(context string) error {
	if d.pos >= len(d.body) {
		return d.fail("unexpected end of input")
	}
	return d.fail("invalid character %q %s", d.body[d.pos], context)
}

// fail refuses the body at pos.
func (d *decoder) fail(format string, args ...any) error {
	return &decodeError{msg: fmt.Sprintf(format, args...), off: d.pos}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// text returns the text a string token stands for; nil for nil. A token of
// ASCII without escapes is its own text. Any other is unquoted by
// json.Unmarshal of that one token, so escapes, invalid UTF-8 and lone
// surrogates decode exactly as encoding/json decodes them.
func text(tok []byte) []byte {
	if tok == nil {
		return nil
	}
	in := tok[1 : len(tok)-1]
	for _, c := range in {
		if c == '\\' || c >= utf8.RuneSelf {
			var s string
			// str accepted the token, so it is a valid JSON string and
			// cannot fail to decode.
			_ = json.Unmarshal(tok, &s)
			return []byte(s)
		}
	}
	return in
}
