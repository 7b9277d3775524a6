package fixtures.annotations;

import java.io.Reader;
import java.util.List;

// The twin of Annotated.java: the same methods without annotations.
// Annotated.java must give each method the same metrics, categories and
// signature as this file does.
class Twin<T> {
    private int count;
    private Runnable task = new Runnable() { public void run() { tick(); } };

    Twin(final int count) { this.count = count; }

    void empty() {}

    public String toString() { return "twin"; }

    public int getCount() { return count; }

    public void setCount(final int count) { this.count = count; }

    int local() {
        final int u = 2;
        return u;
    }

    int qualified() {
        int u = 2;
        return u;
    }

    int resource() throws Exception {
        try (final Reader r = open()) {
            return r.read();
        } catch (final RuntimeException e) {
            return -1;
        }
    }

    Object create() {
        return new Object();
    }

    int cast(Object o) {
        return ((String) o).length() + (o instanceof String ? 1 : 0);
    }

    int[][] grid() {
        return new int [3] [4];
    }

    Runnable anonymous() {
        return new Runnable() {
            public void run() {
                tick();
            }
        };
    }

    <U> List<U> generic(List<U> xs) {
        return xs;
    }

    int types(java.util.List<String> xs, String [] ys, String ... rest) {
        for (final String s : xs) {
            count += s.length();
        }
        return this.<String>first(xs).length() + ys.length + rest.length;
    }

    <U> U first(List<U> xs) { return xs.get(0); }

    void tick() {
        final class Local { int one() { return 1; } }
        count++;
    }

    Reader open() { return null; }

    enum Mode {
        ON, OFF;

        boolean isOn() { return this == ON; }
    }
}
