package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The one majority rule of pair semantics, [[PFDCheck.majorityOf]], with
  * no Spark session.
  */
class MajorityOfSpec extends AnyFunSuite {

  import PFDCheck.majorityOf

  /** U+1D400 is the surrogate pair D835 DC00, so it sorts before U+FF21 in
    * UTF-16 but after it in code-point order, which is Spark's.
    */
  private val (fullwidthA, mathBoldA) = ("Ａ", "𝐀")

  test("the most frequent key wins, with its count") {
    assert(majorityOf(Seq("b", "a", "b")) == (("b", 2L)))
    assert(majorityOf(Seq("a")) == (("a", 1L)))
  }
  test("a tie goes to the least key, whatever the input order") {
    assert(majorityOf(Seq("b", "a", "b", "a")) == (("a", 2L)))
    assert(majorityOf(Seq("a", "b", "a", "b")) == (("a", 2L)))
  }
  test("null keys are skipped") {
    assert(majorityOf(Seq(null, null, "a")) == (("a", 1L)))
    assert(majorityOf(Seq("b", null, null, "b", "a")) == (("b", 2L)))
  }
  test("no majority when every key is null, or there is none") {
    assert(majorityOf(Seq(null, null)) == ((null, 0L)))
    assert(majorityOf(Seq.empty) == ((null, 0L)))
  }
  test("ties break in code-point order, not UTF-16 order: U+FF21 beats U+1D400") {
    assert(mathBoldA < fullwidthA && CodePoints.compare(fullwidthA, mathBoldA) < 0)
    assert(majorityOf(Seq(mathBoldA, fullwidthA)) == ((fullwidthA, 1L)))
    assert(majorityOf(Seq(fullwidthA, mathBoldA, mathBoldA, fullwidthA)) == ((fullwidthA, 2L)))
  }
}
