package repro.core.discovery

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelper

class TokenizerSpec extends AnyFunSuite with PropHelper {
  import Tokenizer._

  test("tokens split on spaces with token indexes") {
    assert(tokens("John Charles").map(t => (t.token, t.pos)) ==
      Seq(("John", 0), ("Charles", 1)))
  }
  test("tokens split on the paper's F-9-107 id") {
    assert(tokens("F-9-107").map(_.token) == Seq("F", "9", "107"))
  }
  test("tokens split on mixed separators (Table 3's 'Holloway, Donald E.')") {
    assert(tokens("Holloway, Donald E.").map(t => (t.token, t.pos)) ==
      Seq(("Holloway", 0), ("Donald", 1), ("E", 2)))
  }
  test("leading/trailing separators do not create empty tokens") {
    assert(tokens(" -x- ").map(_.token) == Seq("x"))
  }
  test("a leading separator numbers the tokens from 1: no token at 0 follows a separator") {
    assert(tokens(" abc").map(t => (t.token, t.pos, t.atEnd)) == Seq(("abc", 1, true)))
    assert(tokens("--x y").map(t => (t.token, t.pos)) == Seq(("x", 1), ("y", 2)))
    assert(tokens("abc").map(t => (t.token, t.pos, t.atEnd)) == Seq(("abc", 0, true)))
  }
  test("tokens of empty / null input") {
    assert(tokens("").isEmpty); assert(tokens(null).isEmpty)
  }
  test("atEnd marks only the final token with no trailing separator") {
    val ts = tokens("John Smith")
    assert(!ts.head.atEnd && ts.last.atEnd)
    assert(!tokens("John Smith ").last.atEnd)
  }
  test("a letter outside the BMP is a letter, not a separator") {
    // U+1D400 (𝐀) is two UTF-16 chars, neither of which is a letter alone
    assert(tokens("x𝐀y").map(_.token) == Seq("x𝐀y"))
    assert(tokens("Ann 𝐀lpha").map(t => (t.token, t.pos)) == Seq(("Ann", 0), ("𝐀lpha", 1)))
  }
  test("prefixes of a short value, atEnd on the whole value") {
    assert(prefixes("abc") == Seq(Part("a", 0, false), Part("ab", 0, false), Part("abc", 0, true)))
  }
  private val shortStr: Gen[String] =
    Gen.choose(1, 12).flatMap(k => Gen.listOfN(k, Gen.alphaNumChar)).map(_.mkString)

  test("prefix count is n for short values (challenge C2)") {
    checkProp(Prop.forAll(shortStr) { s =>
      prefixes(s).map(_.token.length) == (1 to s.length)
    }, 40)
  }
  test("every ngram occurs at its claimed offset") {
    checkProp(Prop.forAll(shortStr) { s =>
      prefixes(s).forall(g => g.pos == 0 && s.regionMatches(g.pos, g.token, 0, g.token.length) &&
                              g.atEnd == (g.token == s))
    }, 40)
  }
  test("long values degrade to capped prefixes and the full value") {
    val s = "12345678901234567890" // 20 chars > MaxPrefixLen
    assert(prefixes(s) ==
      (1 to 12).map(l => Part(s.take(l), 0, atEnd = false)) :+ Part(s, 0, atEnd = true))
  }
  test("zip prefixes appear among ngrams (λ3's 900)") {
    assert(prefixes("90001").contains(Part("900", 0, false)))
  }
  test("token positions are consecutive from zero") {
    checkProp(Prop.forAll(Gen.listOfN(4, Gen.alphaStr.suchThat(_.nonEmpty))) { ws =>
      val ts = tokens(ws.mkString(" "))
      ts.map(_.pos) == ts.indices.toList
    }, 40)
  }
}
